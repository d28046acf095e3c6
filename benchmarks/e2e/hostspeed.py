"""Hold the host steady, and state timings at one host speed.

The reference sandbox is a 2-vCPU VM on a shared host, and two things
there move a timing that have nothing to do with the program:

- A vCPU that goes idle is slow when it wakes: a fixed 5 ms piece of
  work takes a quarter longer for at least 15 ms after a 95 ms sleep,
  most of the time.  A closed loop over localhost sockets sleeps and
  wakes all the time, so how much of this it pays depends on what the
  host does with the halted vCPU, and runs differ by 15-20 %.
- The neighbours slow a busy vCPU for seconds to minutes at a time,
  differently on each vCPU, mostly by taking cache and memory bandwidth.
  The steal counter stays near zero while they do, so nothing the guest
  can read says when.

So while a pass runs, one spinner process per CPU, pinned and at idle
priority (``SCHED_IDLE``: it runs only when nothing else wants that CPU
and is preempted the moment something does), repeats a fixed unit of
work of the kinds the program does.  That does two things.  The vCPUs
never halt, which removes the first effect: same-code runs come out
7-16 % faster and several times closer together.  And each unit records
the *CPU time* it took, which says how slowly the host executes right
now and, unlike wall time, does not grow when the program under test
takes the CPU away; with the CPUs always warm it does not depend on how
busy the program keeps them either (median 2.83-2.90 ms whether the
guest is idle, half busy or saturated).  Every timing is divided by the
slowdown the units around it saw, which removes most of the second
effect.  A timing is then "seconds at reference speed": what the same
work takes on the quiet reference sandbox.  The wall-clock values are
reported beside it.  README.md has the measurements behind each claim.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import select
import struct
import subprocess
import sys
import time

#: CPU seconds of :func:`work_unit` on the quiet reference sandbox.  A
#: fixed constant: it only sets the scale of the normalised seconds.
REFERENCE_UNIT_S = 0.00285
#: A timing is normalised piece by piece; a piece is at most this long
#: and is judged by the samples taken within this margin of it.
PIECE_S = 0.5
MARGIN_S = 0.25

_BLOCK = bytes(range(256)) * 256  # 64 KiB
_MODULUS = (1 << 1024) - 109
_EXPONENT = (1 << 256) - 189
_BUFFER = bytes(4 << 20)


def work_unit() -> float:
    """CPU seconds one fixed unit of work took this thread.

    While the neighbours press, hashing and big-integer arithmetic slow
    by a tenth when allocating small objects and copying buffers slow by
    a third.  The program does all of these, so the unit does: three
    fifths arithmetic, two fifths memory by time.  A unit of arithmetic
    alone saw half to two thirds of the slowdown the workloads did.
    """
    start = time.thread_time()
    block = _BLOCK
    for _ in range(2):
        block = hashlib.sha256(block).digest() * 2048
    value = int.from_bytes(block[:128], "big")
    value = pow(value, _EXPONENT, _MODULUS)
    mixed = 0
    for index in range(6000):
        mixed += (index ^ value) & 7
    frames = []
    for index in range(3000):
        body = str(index + mixed).encode()
        frames.append(struct.pack(">IH", index, len(body)) + body)
    joined = b"".join(frames)
    bytes(memoryview(_BUFFER)[len(joined) % 64 :])
    return time.thread_time() - start


def spinner_main(cpu: int) -> None:
    """Body of one spinner process: work on ``cpu`` until the parent
    writes to standard input (or is gone), then print the samples."""
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)
    parent = os.getppid()
    samples = []
    while not select.select([sys.stdin], [], [], 0)[0] and os.getppid() == parent:
        # ``perf_counter`` is CLOCK_MONOTONIC: one clock for all processes.
        samples.append((time.perf_counter(), work_unit()))
    json.dump(samples, sys.stdout)


class HostSpeed:
    """The spinners of one pass and the timings normalised by them."""

    def __init__(self) -> None:
        self._spinners: list[subprocess.Popen] = []
        self._times: list[float] = []
        self._costs: list[float] = []

    def start(self) -> None:
        for cpu in sorted(os.sched_getaffinity(0)):
            self._spinners.append(
                subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
            )

    def stop(self) -> None:
        """Stop the spinners, wait for each, and keep what they saw."""
        spinners, self._spinners = self._spinners, []
        samples = []
        for spinner in spinners:
            try:
                # A byte, not just end-of-file: workers the program forks
                # inherit the pipe's write end and keep it open.
                out, _ = spinner.communicate(b"stop", timeout=10)
                samples += json.loads(out)
            except (subprocess.TimeoutExpired, ValueError):
                spinner.kill()
                spinner.wait()
        samples.sort()
        self._times += [began for began, _ in samples]
        self._costs += [cost for _, cost in samples]

    @property
    def samples(self) -> int:
        return len(self._costs)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown the samples within ``MARGIN_S`` of ``[start,
        end]`` saw; the nearest sample's when there is none, and 1 (the
        wall clock stands) when no spinner ever reported."""
        if not self._costs:
            return 1.0
        low = bisect.bisect_left(self._times, start - MARGIN_S)
        high = bisect.bisect_right(self._times, end + MARGIN_S)
        if high > low:
            cost = sum(self._costs[low:high]) / (high - low)
        else:
            cost = self._costs[min(low, len(self._costs) - 1)]
        return cost / REFERENCE_UNIT_S

    def normalised(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at reference speed."""
        total = 0.0
        while start < end:
            piece = min(end, start + PIECE_S)
            total += (piece - start) / self.slowdown(start, piece)
            start = piece
        return total


if __name__ == "__main__":
    spinner_main(int(sys.argv[1]))
