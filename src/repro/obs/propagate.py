"""Cross-node trace assembly: the ``traces`` RPC and the merger.

Trace context travels *outward* on every RPC request (the client stamps
``trace_id``/``parent_span_id`` onto the :class:`~repro.net.message.Message`,
the server opens a :meth:`~repro.obs.tracing.Tracer.remote_span` under
it).  Each node therefore holds fragments of the logical trace: the
client's pipeline tree in its own tracer, and on every shard node a
forest of handler spans that *know* which client span caused them but
are not linked to it in memory.  This module assembles the pieces:

* :func:`register_traces` serves a node's recent traces and slow-span
  ring as JSON over a ``traces`` RPC method (next to ``metrics``);
* :func:`fetch_traces` pulls one node's dump over any RPC client;
* :func:`merge_traces` splices the dumps back into one tree per
  ``trace_id`` by matching each fragment's ``parent_span_id`` against
  the ``span_id`` of a span in another fragment, ordering siblings by
  their absolute ``start_time``;
* :func:`format_merged` renders a merged tree as indented text with
  per-span node attribution (the ``reed trace`` view).

Assembly is on demand and read-only — nodes never push spans anywhere;
the merger works purely on the JSON dumps, so it can combine live
scrapes, a local tracer's dump, and trace files saved by the SLO gate.
"""

from __future__ import annotations

import json

from repro.net.rpc import RpcClient, ServiceRegistry
from repro.obs.tracing import Tracer

#: The wire method name every node serves its trace ring under.
TRACES_METHOD = "traces"


def dump_tracer(tracer: Tracer, node: str | None = None) -> dict:
    """One tracer's state as a JSON-friendly dump.

    ``node`` overrides the attribution for spans the tracer left
    unattributed (e.g. the process-default tracer on a client).
    """
    label = node if node is not None else tracer.node
    traces = [span.tree() for span in tracer.recent_traces()]
    slow = tracer.slow_spans()
    if label is not None:
        for tree in traces:
            _fill_node(tree, label)
        slow = [
            dict(entry, node=entry.get("node") or label) for entry in slow
        ]
    return {"node": label, "traces": traces, "slow": slow}


def _fill_node(tree: dict, node: str) -> None:
    if not tree.get("node"):
        tree["node"] = node
    for child in tree.get("children", ()):
        _fill_node(child, node)


def register_traces(registry: ServiceRegistry, tracer: Tracer) -> None:
    """Serve one node's trace ring and slow-span ring over RPC.

    The (optional) request payload is a JSON object; ``{"trace_id": id}``
    narrows the reply to fragments of one trace.
    """

    def handler(payload: bytes) -> bytes:
        wanted = None
        if payload:
            wanted = json.loads(payload.decode("utf-8")).get("trace_id")
        dump = dump_tracer(tracer)
        if wanted:
            dump["traces"] = [
                tree for tree in dump["traces"] if tree["trace_id"] == wanted
            ]
            dump["slow"] = [
                entry for entry in dump["slow"] if entry["trace_id"] == wanted
            ]
        return json.dumps(dump).encode("utf-8")

    registry.register(TRACES_METHOD, handler)


def fetch_traces(rpc: RpcClient, trace_id: str | None = None) -> dict:
    """Pull one node's trace dump over an RPC client."""
    payload = b""
    if trace_id:
        payload = json.dumps({"trace_id": trace_id}).encode("utf-8")
    return json.loads(str(rpc.call(TRACES_METHOD, payload), "utf-8"))


def _walk(tree: dict):
    yield tree
    for child in tree.get("children", ()):
        yield from _walk(child)


def _sort_children(tree: dict) -> None:
    tree["children"] = sorted(
        tree.get("children", ()), key=lambda c: (c.get("start_time") or 0.0)
    )
    for child in tree["children"]:
        _sort_children(child)


def merge_traces(dumps: list[dict]) -> list[dict]:
    """Splice per-node trace fragments into one tree per ``trace_id``.

    Every top-level fragment whose ``parent_span_id`` matches the
    ``span_id`` of a span in any fragment of the same trace is attached
    as that span's child; fragments with no resolvable parent stay at
    the top (the client's root span, or orphans whose parent fell out of
    a bounded ring).  Returns one entry per trace, ordered by the root's
    ``start_time``::

        {"trace_id": ..., "root": <tree>, "orphans": [<tree>, ...],
         "nodes": [<node name>, ...]}

    ``root`` is the earliest-starting unparented fragment; any other
    unparented fragments are reported as ``orphans`` rather than being
    silently grafted somewhere wrong.
    """
    fragments: dict[str, list[dict]] = {}
    for dump in dumps:
        node = dump.get("node")
        for tree in dump.get("traces", ()):
            copy = json.loads(json.dumps(tree))  # never mutate the input
            if node:
                _fill_node(copy, node)
            fragments.setdefault(copy["trace_id"], []).append(copy)

    merged: list[dict] = []
    for trace_id, trees in fragments.items():
        index: dict[str, dict] = {}
        for tree in trees:
            for span in _walk(tree):
                index[span["span_id"]] = span
        roots: list[dict] = []
        for tree in trees:
            parent = index.get(tree.get("parent_span_id") or "")
            if parent is not None and parent is not tree:
                parent.setdefault("children", []).append(tree)
            else:
                roots.append(tree)
        roots.sort(key=lambda t: (t.get("start_time") or 0.0))
        for tree in roots:
            _sort_children(tree)
        nodes = sorted(
            {span["node"] for tree in roots for span in _walk(tree) if span.get("node")}
        )
        merged.append(
            {
                "trace_id": trace_id,
                "root": roots[0] if roots else None,
                "orphans": roots[1:],
                "nodes": nodes,
            }
        )
    merged.sort(
        key=lambda t: ((t["root"] or {}).get("start_time") or 0.0)
    )
    return merged


def find_trace(merged: list[dict], trace_id: str) -> dict | None:
    """The merged entry for one trace id, or ``None``."""
    for entry in merged:
        if entry["trace_id"] == trace_id:
            return entry
    return None


def format_merged(tree: dict, indent: str = "") -> str:
    """Render a merged span tree as indented text with node attribution."""
    duration = tree.get("duration")
    timing = f"{duration * 1000:.3f} ms" if duration is not None else "open"
    node = tree.get("node")
    where = f" @{node}" if node else ""
    attrs = (
        " " + " ".join(f"{k}={v}" for k, v in tree["attributes"].items())
        if tree.get("attributes")
        else ""
    )
    flag = " !" + tree["error"] if tree.get("error") else ""
    lines = [f"{indent}{tree['name']} [{timing}]{where}{attrs}{flag}"]
    for child in tree.get("children", ()):
        lines.append(format_merged(child, indent + "  "))
    return "\n".join(lines)
