"""Trace propagation and assembly tests (repro.obs.propagate).

Covers the merger's splice logic on hand-built fragments, the ``traces``
RPC served over an in-process transport, and the full client→server
context propagation path through :class:`~repro.net.rpc.RpcClient` and
:class:`~repro.net.rpc.ServiceRegistry` dispatch.
"""

import json

from repro.net.rpc import LoopbackTransport, ServiceRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import (
    TRACES_METHOD,
    dump_tracer,
    fetch_traces,
    find_trace,
    format_merged,
    merge_traces,
    register_traces,
)
from repro.obs.tracing import Tracer
from repro.util.clock import SimClock


def _tracer(node: str | None = None) -> tuple[Tracer, SimClock]:
    clock = SimClock()
    return Tracer(MetricsRegistry(), clock=clock, node=node), clock


def test_dump_tracer_fills_node_attribution():
    tracer, clock = _tracer()
    with tracer.span("op"):
        clock.advance(0.1)
    dump = dump_tracer(tracer, node="client")
    assert dump["node"] == "client"
    assert dump["traces"][0]["node"] == "client"


def test_merge_splices_remote_fragment_under_client_span():
    client_tracer, clock = _tracer(node="client")
    with client_tracer.span("upload") as root:
        clock.advance(0.1)
        with client_tracer.span("upload.store") as store:
            clock.advance(0.1)

    server_tracer, server_clock = _tracer(node="storage-0")
    # The server-side continuation: a remote span stamped with the
    # context that was active at the client when the RPC was issued.
    with server_tracer.remote_span(
        "rpc.storage.put_many", store.trace_id, store.span_id
    ):
        server_clock.advance(0.05)

    merged = merge_traces(
        [dump_tracer(client_tracer), dump_tracer(server_tracer)]
    )
    assert len(merged) == 1
    entry = merged[0]
    assert entry["trace_id"] == root.trace_id
    assert entry["orphans"] == []
    assert entry["nodes"] == ["client", "storage-0"]
    tree = entry["root"]
    assert tree["name"] == "upload"
    store_tree = tree["children"][0]
    assert store_tree["name"] == "upload.store"
    handler = store_tree["children"][0]
    assert handler["name"] == "rpc.storage.put_many"
    assert handler["node"] == "storage-0"
    assert handler["parent_span_id"] == store.span_id
    text = format_merged(tree)
    assert "@storage-0" in text and "@client" in text


def test_merge_reports_unresolvable_fragments_as_orphans():
    server_tracer, clock = _tracer(node="storage-1")
    with server_tracer.remote_span("rpc.get", "t" * 16, "missing-parent"):
        clock.advance(0.01)
    merged = merge_traces([dump_tracer(server_tracer)])
    assert len(merged) == 1
    # With no resolvable parent the fragment becomes the trace root
    # (nothing earlier exists); a second unparented fragment would be
    # an orphan.
    with server_tracer.remote_span("rpc.get", "t" * 16, "also-missing"):
        clock.advance(0.01)
    merged = merge_traces([dump_tracer(server_tracer)])
    entry = find_trace(merged, "t" * 16)
    assert entry["root"] is not None
    assert len(entry["orphans"]) == 1


def test_merge_orders_siblings_by_start_time():
    client_tracer, clock = _tracer(node="client")
    with client_tracer.span("root") as root:
        clock.advance(1.0)

    # Two server fragments under the same parent, built out of order;
    # the second started earlier on the (shared, simulated) timeline.
    late, late_clock = _tracer(node="storage-0")
    late_clock.advance(10.0)
    with late.remote_span("rpc.b", root.trace_id, root.span_id):
        late_clock.advance(0.1)
    early, early_clock = _tracer(node="storage-1")
    early_clock.advance(5.0)
    with early.remote_span("rpc.a", root.trace_id, root.span_id):
        early_clock.advance(0.1)

    merged = merge_traces(
        [dump_tracer(late), dump_tracer(client_tracer), dump_tracer(early)]
    )
    children = merged[0]["root"]["children"]
    assert [child["name"] for child in children] == ["rpc.a", "rpc.b"]


def test_merge_does_not_mutate_input_dumps():
    tracer, clock = _tracer(node="n")
    with tracer.span("op") as span:
        clock.advance(0.1)
    remote, remote_clock = _tracer(node="m")
    with remote.remote_span("rpc.x", span.trace_id, span.span_id):
        remote_clock.advance(0.1)
    dumps = [dump_tracer(tracer), dump_tracer(remote)]
    before = json.dumps(dumps, sort_keys=True)
    merge_traces(dumps)
    assert json.dumps(dumps, sort_keys=True) == before


def test_traces_rpc_round_trip_and_filter():
    metrics = MetricsRegistry()
    clock = SimClock()
    tracer = Tracer(metrics, clock=clock, node="storage-0")
    registry = ServiceRegistry(metrics=metrics, tracer=tracer)
    register_traces(registry, tracer)
    with tracer.span("local-work"):
        clock.advance(0.2)
    with tracer.span("other-work"):
        clock.advance(0.2)
    wanted = tracer.recent_traces()[0].trace_id

    client = LoopbackTransport(registry, metrics=metrics).client()
    dump = fetch_traces(client)
    assert dump["node"] == "storage-0"
    assert {tree["name"] for tree in dump["traces"]} == {
        "local-work",
        "other-work",
    }
    filtered = fetch_traces(client, trace_id=wanted)
    assert [tree["trace_id"] for tree in filtered["traces"]] == [wanted]


def test_rpc_dispatch_propagates_context_end_to_end():
    """Client span -> RpcClient stamps the wire -> dispatch opens a
    handler span -> merger splices one cross-process tree."""
    server_metrics = MetricsRegistry()
    server_tracer = Tracer(server_metrics, node="storage-0")
    registry = ServiceRegistry(metrics=server_metrics, tracer=server_tracer)
    registry.register("echo", lambda payload: payload)
    register_traces(registry, server_tracer)
    client = LoopbackTransport(registry, metrics=MetricsRegistry()).client()

    client_tracer, _ = _tracer(node="client")
    with client_tracer.span("operation") as root:
        assert client.call("echo", b"hi") == b"hi"

    merged = merge_traces(
        [dump_tracer(client_tracer), dump_tracer(server_tracer)]
    )
    entry = find_trace(merged, root.trace_id)
    assert entry is not None and entry["orphans"] == []
    handler = entry["root"]["children"][0]
    assert handler["name"] == "rpc.echo"
    assert handler["node"] == "storage-0"
    assert handler["parent_span_id"] == root.span_id


def test_untraced_requests_open_no_handler_spans():
    server_metrics = MetricsRegistry()
    server_tracer = Tracer(server_metrics, node="storage-0")
    registry = ServiceRegistry(metrics=server_metrics, tracer=server_tracer)
    registry.register("echo", lambda payload: payload)
    client = LoopbackTransport(registry, metrics=MetricsRegistry()).client()
    # No active span at the client: the request carries no context and
    # the server must not fabricate one.
    assert client.call("echo", b"x") == b"x"
    assert server_tracer.recent_traces() == []


def test_traces_method_name_is_stable():
    # The wire method name is part of the cross-version contract.
    assert TRACES_METHOD == "traces"
