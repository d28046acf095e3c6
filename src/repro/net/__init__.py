"""Networking: message framing, RPC, loopback and TCP transports."""

from repro.net.message import MAX_MESSAGE_BYTES, Message, frame, read_frame
from repro.net.retry import (
    IDEMPOTENT_METHOD_SUFFIXES,
    RetryPolicy,
    is_idempotent_method,
)
from repro.net.rpc import (
    LoopbackTransport,
    RpcClient,
    ServiceRegistry,
    decode_error,
    encode_error,
)
from repro.net.tcp import TcpConnection, TcpServer, connect

__all__ = [
    "IDEMPOTENT_METHOD_SUFFIXES",
    "LoopbackTransport",
    "MAX_MESSAGE_BYTES",
    "Message",
    "RetryPolicy",
    "RpcClient",
    "ServiceRegistry",
    "TcpConnection",
    "TcpServer",
    "connect",
    "decode_error",
    "encode_error",
    "frame",
    "is_idempotent_method",
    "read_frame",
]
