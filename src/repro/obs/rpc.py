"""Live metrics exposition over the RPC layer.

Every REED node (data-store server, key-store server, key manager)
serves a ``metrics`` method next to its service methods, so a running
:class:`~repro.core.cluster.TcpCluster` can be scraped from outside with
the same RPC client that talks to the service::

    register_metrics(service_registry, node_metrics)   # server side
    text = scrape(rpc_client)                          # client side

The request payload selects the format: empty or ``b"prometheus"`` for
the text exposition format, ``b"json"`` for the registry snapshot.
"""

from __future__ import annotations

from repro.net.rpc import RpcClient, ServiceRegistry
from repro.obs.expo import render_json, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import ProtocolError

#: The wire method name every node serves its registry under.
METRICS_METHOD = "metrics"

FORMAT_PROMETHEUS = "prometheus"
FORMAT_JSON = "json"


def register_metrics(registry: ServiceRegistry, metrics: MetricsRegistry) -> None:
    """Serve ``metrics`` exposition for one node's registry."""

    def handler(payload: bytes) -> bytes:
        fmt = payload.decode("utf-8") if payload else FORMAT_PROMETHEUS
        if fmt == FORMAT_PROMETHEUS:
            return render_prometheus(metrics).encode("utf-8")
        if fmt == FORMAT_JSON:
            return render_json(metrics).encode("utf-8")
        raise ProtocolError(f"unknown metrics format {fmt!r}")

    registry.register(METRICS_METHOD, handler)


def scrape(rpc: RpcClient, fmt: str = FORMAT_PROMETHEUS) -> str:
    """Fetch one node's exposition body over an RPC client."""
    return str(rpc.call(METRICS_METHOD, fmt.encode("utf-8")), "utf-8")
