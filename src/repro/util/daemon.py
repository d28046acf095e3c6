"""The one background loop behind every periodic maintenance pass.

Replica repair (:meth:`repro.storage.repair.ReplicaRepairer.run_once`)
and compaction (:meth:`repro.storage.gc.CompactionGC.run_once`) both run
as an :class:`IntervalDaemon`: a thread that runs the pass, then sleeps
``interval`` seconds.  A failing pass records its error, bumps the
caller's failure counter (``repair_scan_failures_total``,
``gc_pass_failures_total``) and the next interval retries — the thread
itself never dies, because a daemon that died silently looks healthy
while the deployment stops healing or reclaiming space.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Any

from repro.util.errors import ConfigurationError


class IntervalDaemon:
    """Background thread running ``run_pass`` every ``interval`` seconds.

    ``failures`` is a counter (anything with ``inc()``) bumped once per
    pass that raised.  Use as a context manager or call
    :meth:`start`/:meth:`stop`, both idempotent.  :meth:`run_now` forces
    an immediate pass (tests, post-restart).
    """

    def __init__(
        self,
        run_pass: Callable[[], Any],
        failures,
        interval: float,
        name: str = "reed-daemon",
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("daemon interval must be positive")
        self.run_pass = run_pass
        self.failures = failures
        self.interval = interval
        self.name = name
        self.last_report: Any = None
        #: Exception that aborted the most recent pass (None after a
        #: pass completes) — the daemon's health surface.
        self.last_error: Exception | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.run_now()
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                self.last_error = exc
                self.failures.inc()
            self._stop.wait(self.interval)

    def run_now(self) -> Any:
        """Run one pass now; returns (and keeps) its report."""
        with self._lock:
            report = self.run_pass()
            self.last_report = report
            self.last_error = None
            return report

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=self.name, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "IntervalDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
