"""Key-lifetime management: scheduled rotation and compromise response.

Section II-B motivates rekeying beyond revocation: "every cryptographic
key in use is associated with a lifetime, and required to be replaced
once the key reaches the end of its lifetime" (NIST SP 800-57), and
real-world key-compromise incidents demand immediate replacement.

:class:`KeyRotationScheduler` implements both drivers on top of the
client's rekey operation:

* **scheduled rotation** — files whose file key is older than the
  configured lifetime are rekeyed (lazy by default: cheap, and the next
  update re-encrypts naturally);
* **compromise response** — ``emergency_rekey`` immediately and
  *actively* rekeys a set of files, so even already-stored data is
  gated by fresh keys.

The scheduler keeps rotation under the file's *current* policy: lifetime
rotation renews protection without changing who is authorized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.client import REEDClient
from repro.core.policy import FilePolicy
from repro.core.rekey import RekeyResult, RevocationMode
from repro.core.rekeypipe import check_items
from repro.util.errors import ConfigurationError

#: NIST-style default: rotate file keys at least every 90 days.
DEFAULT_MAX_KEY_AGE = 90 * 24 * 3600.0


@dataclass
class RotationPolicy:
    """When and how keys are rotated."""

    max_key_age_seconds: float = DEFAULT_MAX_KEY_AGE
    mode: RevocationMode = RevocationMode.LAZY

    def __post_init__(self) -> None:
        if self.max_key_age_seconds <= 0:
            raise ConfigurationError("key lifetime must be positive")


@dataclass
class RotationReport:
    """What one rotation sweep did."""

    checked: int
    rotated: list[RekeyResult] = field(default_factory=list)
    skipped_fresh: int = 0


class KeyRotationScheduler:
    """Tracks file-key ages for one owning client and rotates on expiry.

    The clock is injectable so tests can drive time explicitly.
    """

    def __init__(
        self,
        client: REEDClient,
        policy: RotationPolicy | None = None,
        clock=time.time,
    ) -> None:
        if client.keyreg_owner is None:
            raise ConfigurationError("key rotation requires an owner client")
        self.client = client
        self.policy = policy or RotationPolicy()
        self._clock = clock
        self._last_rotation: dict[str, float] = {}

    def track(self, file_id: str, rotated_at: float | None = None) -> None:
        """Start tracking a file (typically right after upload)."""
        self._last_rotation[file_id] = (
            self._clock() if rotated_at is None else rotated_at
        )

    def untrack(self, file_id: str) -> None:
        self._last_rotation.pop(file_id, None)

    def tracked(self) -> list[str]:
        return sorted(self._last_rotation)

    def key_age(self, file_id: str) -> float:
        if file_id not in self._last_rotation:
            raise ConfigurationError(f"{file_id!r} is not tracked")
        return self._clock() - self._last_rotation[file_id]

    def due(self) -> list[str]:
        """Files whose key has outlived the configured lifetime."""
        now = self._clock()
        return sorted(
            file_id
            for file_id, last in self._last_rotation.items()
            if now - last >= self.policy.max_key_age_seconds
        )

    def _current_policy(self, file_id: str) -> FilePolicy:
        [record] = check_items(self.client.keystore.get_many([file_id]))
        return FilePolicy.parse(record.policy_text)

    def rotate_due(self) -> RotationReport:
        """Rekey every expired file under its current access policy."""
        report = RotationReport(checked=len(self._last_rotation))
        expired = set(self.due())
        for file_id in sorted(self._last_rotation):
            if file_id not in expired:
                report.skipped_fresh += 1
                continue
            result = self.client.rekey(
                file_id, self._current_policy(file_id), self.policy.mode
            )
            self._last_rotation[file_id] = self._clock()
            report.rotated.append(result)
        return report

    def emergency_rekey(self, file_ids: list[str]) -> list[RekeyResult]:
        """Compromise response: immediately and actively rekey files.

        Used when a key is known or suspected to be exposed — the stub
        files are re-encrypted right away regardless of key age.
        """
        results = []
        for file_id in file_ids:
            result = self.client.rekey(
                file_id, self._current_policy(file_id), RevocationMode.ACTIVE
            )
            self._last_rotation[file_id] = self._clock()
            results.append(result)
        return results
