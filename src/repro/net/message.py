"""RPC message framing.

Every request/response is a :class:`Message`: a correlation id, a method
name, a success/error flag, and an opaque payload encoded by the service
layer.  On byte streams (TCP) messages are framed with a 4-byte
big-endian length prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.codec import Decoder, Encoder
from repro.util.errors import CorruptionError, ProtocolError

#: Upper bound on a single message body (64 MiB) — a sanity limit that
#: turns a corrupted length prefix into a clean error instead of an
#: attempted multi-gigabyte allocation.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class Message:
    """One framed RPC message.

    ``trace_id``/``parent_span_id`` carry distributed-tracing context
    (see :mod:`repro.obs.propagate`).  They are encoded as *optional
    trailing fields*: an untraced message (both empty — every response,
    and every request from an uninstrumented caller) encodes to exactly
    the original four-field wire format, and the decoder accepts such
    old-format frames unchanged — peers that predate tracing interoperate
    with peers that carry it.
    """

    message_id: int
    method: str
    is_error: bool
    payload: bytes | memoryview
    trace_id: str = ""
    parent_span_id: str = ""

    def encode(self) -> bytes:
        return b"".join(self.parts())

    def parts(self) -> list[bytes]:
        """The encoding as pieces that join to :meth:`encode`; a
        ``bytes`` payload is one of them, not copied."""
        enc = (
            Encoder()
            .uint(self.message_id)
            .text(self.method)
            .boolean(self.is_error)
            .blob(self.payload)
        )
        if self.trace_id or self.parent_span_id:
            enc.text(self.trace_id).text(self.parent_span_id)
        return enc.pieces()

    @classmethod
    def decode(cls, data: bytes | bytearray) -> "Message":
        """Decode a frame body.  From a ``bytearray`` (a large frame,
        received in place) the payload is a read-only view of it, which
        the service codec reads without copying it whole."""
        dec = Decoder(data)
        message_id = dec.uint()
        method = dec.text()
        is_error = dec.boolean()
        payload = dec.blob_view()
        # Optional trailing trace context: absent on old-format frames.
        trace_id = dec.text() if dec.remaining else ""
        parent_span_id = dec.text() if dec.remaining else ""
        dec.expect_end()
        return cls(
            message_id=message_id,
            method=method,
            is_error=is_error,
            payload=payload,
            trace_id=trace_id,
            parent_span_id=parent_span_id,
        )


def _prefix(length: int) -> bytes:
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {length} bytes exceeds the frame limit")
    return length.to_bytes(4, "big")


def frame(data: bytes) -> bytes:
    """Length-prefix a message body for stream transports."""
    return _prefix(len(data)) + data


def frame_parts(message: Message) -> list[bytes]:
    """``frame(message.encode())`` as the buffers that join to it: the
    length prefix, then :meth:`Message.parts`, the payload uncopied."""
    parts = message.parts()
    return [_prefix(sum(map(len, parts))), *parts]


def read_frame(recv_exact, max_bytes: int = MAX_MESSAGE_BYTES) -> bytes:
    """Read one frame using ``recv_exact(n) -> bytes`` (raises on EOF).

    ``max_bytes`` lets a server enforce a tighter per-deployment limit
    than the global sanity bound (e.g. a public-facing endpoint that
    only ever expects small control messages).
    """
    header = recv_exact(4)
    length = int.from_bytes(header, "big")
    if length > max_bytes:
        raise CorruptionError(f"frame length {length} exceeds the limit")
    return recv_exact(length)
