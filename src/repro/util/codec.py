"""A small deterministic binary codec for on-wire and on-disk structures.

REED serializes file recipes, key-state envelopes, RPC messages, and
container indexes.  Rather than pickling (unsafe across trust boundaries)
or JSON (no clean bytes support), this module provides a compact
length-prefixed codec with explicit types:

* unsigned varints (LEB128)
* length-prefixed byte strings
* UTF-8 strings
* big integers (for RSA values)
* homogeneous lists

The format is deterministic: encoding the same values always yields the
same bytes, which matters because fingerprints of encoded structures are
used as storage keys.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.util.errors import CorruptionError


class Encoder:
    """Append-only encoder producing deterministic bytes."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def uint(self, value: int) -> "Encoder":
        """Encode an unsigned integer as a LEB128 varint."""
        if value < 0:
            raise ValueError(f"uint cannot encode negative value {value}")
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self._parts.append(bytes(out))
        return self

    def raw(self, data: bytes) -> "Encoder":
        """Append raw bytes with no framing (caller knows the length)."""
        self._parts.append(bytes(data))
        return self

    def blob(self, data: bytes) -> "Encoder":
        """Encode a length-prefixed byte string."""
        self.uint(len(data))
        self._parts.append(bytes(data))
        return self

    def text(self, value: str) -> "Encoder":
        """Encode a UTF-8 string as a blob."""
        return self.blob(value.encode("utf-8"))

    def bigint(self, value: int) -> "Encoder":
        """Encode a non-negative big integer (e.g. an RSA value)."""
        if value < 0:
            raise ValueError("bigint cannot encode negative values")
        length = (value.bit_length() + 7) // 8
        return self.blob(value.to_bytes(length, "big"))

    def boolean(self, value: bool) -> "Encoder":
        return self.uint(1 if value else 0)

    def list_of(self, items: Iterable[bytes]) -> "Encoder":
        """Encode a list of blobs, prefixed by the element count."""
        items = list(items)
        self.uint(len(items))
        for item in items:
            self.blob(item)
        return self

    def done(self) -> bytes:
        return b"".join(self._parts)

    def pieces(self) -> list[bytes]:
        """The encoding as the pieces that join to :meth:`done`, a blob
        given as ``bytes`` among them uncopied."""
        return self._parts


class Decoder:
    """Sequential decoder matching :class:`Encoder`'s output."""

    def __init__(self, data: bytes | bytearray | memoryview) -> None:
        # Any other buffer is read through a read-only view, each field
        # copied out as bytes once.
        self._view = not isinstance(data, bytes)
        self._data = memoryview(data).toreadonly() if self._view else data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, n: int, copy: bool = True) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise CorruptionError(
                f"decoder underrun: need {n} bytes at offset {self._pos}, "
                f"have {self.remaining}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return bytes(out) if copy and self._view else out

    def uint(self) -> int:
        value = 0
        shift = 0
        while True:
            if self._pos >= len(self._data):
                raise CorruptionError("decoder underrun: truncated varint")
            byte = self._data[self._pos]
            self._pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise CorruptionError("varint too long")

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def blob(self) -> bytes:
        return self._take(self.uint())

    def blob_view(self) -> bytes | memoryview:
        """A blob, not copied: a read-only view when the decoded buffer
        is not ``bytes``."""
        return self._take(self.uint(), copy=False)

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"invalid UTF-8 in encoded text: {exc}") from exc

    def bigint(self) -> int:
        return int.from_bytes(self.blob(), "big")

    def boolean(self) -> bool:
        return bool(self.uint())

    def list_of(self) -> list[bytes]:
        return [self.blob() for _ in range(self.uint())]

    def expect_end(self) -> None:
        """Raise if any bytes remain undecoded (trailing-garbage check)."""
        if self.remaining:
            raise CorruptionError(f"{self.remaining} trailing bytes after decode")


def encode_fields(*fields: bytes) -> bytes:
    """Encode a flat tuple of byte-string fields."""
    enc = Encoder()
    for field in fields:
        enc.blob(field)
    return enc.done()


def decode_fields(data: bytes, count: int) -> Sequence[bytes]:
    """Decode exactly ``count`` byte-string fields; rejects trailing bytes."""
    dec = Decoder(data)
    fields = [dec.blob() for _ in range(count)]
    dec.expect_end()
    return fields
