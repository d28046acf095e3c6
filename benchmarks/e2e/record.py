"""Operation timing and the correctness oracle.

Every client operation the benchmark issues runs inside
:meth:`Recorder.op`; every assertion about what came back goes through
:meth:`Recorder.check` or :meth:`Op.fail`.  Both count as *attempted*,
anything not ok counts as *failed*, and a failed run exits non-zero.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from benchmarks.e2e.hostspeed import HostSpeed
from benchmarks.e2e.tracing import SpanLog

SETUP, MEASURE, VERIFY = "setup", "measure", "verify"


@dataclass
class Op:
    id: int
    kind: str
    phase: str
    client: str
    nbytes: int
    start: float = 0.0
    end: float = 0.0
    ok: bool = True
    detail: str = ""
    #: Storage round trips the operation's result reported (source **S**;
    #: recorded for rekey rounds).
    store_round_trips: int = 0

    #: Seconds at reference host speed; :meth:`Recorder.normalise` sets
    #: it once the pass's speed samples are in.
    seconds: float = 0.0

    @property
    def raw_seconds(self) -> float:
        return self.end - self.start

    def fail(self, detail: str) -> None:
        self.ok = False
        self.detail = detail


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


class Recorder:
    """Collects operations and oracle checks for one pass of a workload."""

    def __init__(self, trace: bool = False) -> None:
        #: A traced pass probes its clients and records spans; an
        #: untraced one only draws operation ids from the log.
        self.trace = trace
        self.log = SpanLog()
        self.host = HostSpeed()
        self.phase = SETUP
        self.ops: list[Op] = []
        self.checks: list[Check] = []
        self._lock = threading.Lock()

    @contextmanager
    def op(self, kind: str, client, nbytes: int = 0):
        """Time one client operation; an exception escaping it is a
        failed operation, not a crashed benchmark."""
        traced = self.trace and self.phase == MEASURE
        # One id source per pass, so operation and span ids never collide.
        op_id = self.log.next_id()
        op = Op(id=op_id, kind=kind, phase=self.phase, client=client.user, nbytes=nbytes)
        if traced:
            client.probe.op = op_id
        op.start = time.perf_counter()
        try:
            yield op
        except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
            op.fail(f"{type(exc).__name__}: {exc}")
        finally:
            op.end = time.perf_counter()
            if traced:
                client.probe.op = None
                self.log.add(
                    "core.client", kind, op.start, op.end, op_id, None, span_id=op_id
                )
            with self._lock:
                self.ops.append(op)

    def normalise(self) -> None:
        """State every operation's duration at reference host speed."""
        for op in self.ops:
            op.seconds = op.raw_seconds / self.host.slowdown(op.start, op.end)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        with self._lock:
            self.checks.append(Check(name, bool(ok), detail))

    def measured(self, kind: str) -> list[Op]:
        """Successful measured-phase operations of one kind, in order."""
        return [
            op
            for op in self.ops
            if op.phase == MEASURE and op.kind == kind and op.ok
        ]

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.checks)

    def failures(self) -> list[str]:
        found = [
            f"{op.phase} {op.kind} #{op.id} ({op.client}): {op.detail}"
            for op in self.ops
            if not op.ok
        ]
        found += [
            f"check {check.name}: {check.detail}"
            for check in self.checks
            if not check.ok
        ]
        return found
