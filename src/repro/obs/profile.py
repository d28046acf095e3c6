"""Where an operation's wall time went: a critical-path profile of a trace.

A finished trace tree (:meth:`Span.tree() <repro.obs.tracing.Span.tree>`,
or a root from :func:`~repro.obs.propagate.merge_traces`) says what ran,
but not what the operation *waited for*: the upload pipeline runs its
stages on several threads at once, so their spans overlap and their
durations add up to more than the upload took.  :func:`profile` charges
every instant of the root's wall time to exactly one span — the one on
the critical path then — so the charges add up to the root's duration
and can be compared with it.

The walk goes backwards from the end of a span (as in Jaeger's critical
path): the child that was still running latest is on the path until it
started; within that child the same walk repeats; the time between the
chosen children, where none of them ran, is the span's own *self time*.
A child that overlaps the one chosen after it is cut where that one
began.  Children are clipped to their parent's interval, and spans that
never finished are left out.  The root's self time — time in which no
named stage ran — is reported as :data:`UNATTRIBUTED`.

Timestamps are the trees' absolute ``start_time``/``end_time`` stamps,
so fragments merged from several nodes of one host line up.
"""

from __future__ import annotations

#: The key under which the root span's own self time is reported.
UNATTRIBUTED = "unattributed"


def profile(tree: dict) -> dict[str, float]:
    """Seconds of critical-path self time per span name in ``tree``.

    The values (:data:`UNATTRIBUTED` included) sum to the root's
    ``end_time - start_time``.
    """
    start, end = tree.get("start_time"), tree.get("end_time")
    if start is None or end is None:
        raise ValueError("profile needs a finished trace: the root span is open")
    times: dict[str, float] = {}
    _charge(tree, UNATTRIBUTED, start, end, times)
    return times


def _charge(span: dict, name: str, start: float, end: float, times: dict) -> None:
    """Charge ``[start, end]`` of ``span`` to ``name`` and its children."""
    children = []
    for child in span.get("children", ()):
        child_start, child_end = child.get("start_time"), child.get("end_time")
        if child_start is None or child_end is None:
            continue
        child_start, child_end = max(child_start, start), min(child_end, end)
        if child_start < child_end:
            children.append((child_start, child_end, child))
    own = 0.0
    cursor = end
    while started := [item for item in children if item[0] < cursor]:
        # The child running latest before the cursor, cut at the cursor.
        best = max(started, key=lambda item: (min(item[1], cursor), item[1]))
        children.remove(best)
        child_start, child_end, child = best
        child_end = min(child_end, cursor)
        own += cursor - child_end
        _charge(child, child["name"], child_start, child_end, times)
        cursor = child_start
    own += cursor - start
    times[name] = times.get(name, 0.0) + own
