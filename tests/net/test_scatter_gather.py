"""Large frames go out as their parts and come in through one buffer.

Whatever the path, the bytes on the wire are ``frame(message.encode())``:
a client's request, a server's response, and a send the kernel takes in
pieces (small ``SO_SNDBUF``, a non-blocking server socket).
"""

import socket
import threading
import time

import pytest

from repro.net import tcp
from repro.net.message import Message, frame, frame_parts
from repro.net.rpc import ServiceRegistry
from repro.net.tcp import LARGE_FRAME_BYTES, TcpConnection, TcpServer, _read_frame, _send_frame
from repro.util.errors import ProtocolError
from repro.workloads.synthetic import unique_data

PAYLOAD = unique_data(2 * 1024 * 1024, seed=60)


def _recv_all(sock: socket.socket, n: int) -> bytes:
    out = bytearray()
    while len(out) < n:
        piece = sock.recv(min(65536, n - len(out)))
        assert piece, f"peer closed after {len(out)} of {n} bytes"
        out += piece
    return bytes(out)


@pytest.fixture()
def small_send_buffers(monkeypatch):
    """Every socket the transport tunes gets a 4 KiB send buffer."""
    tune = tcp.tune_socket

    def tune_small(sock):
        tune(sock)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

    monkeypatch.setattr(tcp, "tune_socket", tune_small)


class Trickle:
    """A socket that takes at most ``step`` bytes per send and hands out
    at most ``step`` bytes per receive."""

    def __init__(self, data: bytes = b"", step: int = 1000) -> None:
        self.data = data
        self.step = step
        self.sent = bytearray()
        self.sendmsg_calls = 0

    def sendall(self, data):
        self.sent += data

    def sendmsg(self, buffers):
        self.sendmsg_calls += 1
        room = self.step
        for buffer in buffers:
            taken = bytes(buffer[:room])
            self.sent += taken
            room -= len(taken)
            if not room:
                break
        return self.step - room

    def recv(self, n):
        out, self.data = self.data[: min(n, self.step)], self.data[min(n, self.step) :]
        return out

    def recv_into(self, view):
        out = self.recv(len(view))
        view[: len(out)] = out
        return len(out)


class TestSendFrame:
    def test_partial_sends_resume_where_they_stopped(self):
        message = Message(3, "storage.put_many", False, PAYLOAD[:300_000], "ab" * 8, "cd" * 8)
        sock = Trickle(step=7_001)
        _send_frame(sock, frame_parts(message))
        assert bytes(sock.sent) == frame(message.encode())
        assert sock.sendmsg_calls > 1

    def test_small_frame_is_one_joined_send(self):
        message = Message(4, "echo", False, b"x" * 100)
        sock = Trickle(step=10)
        _send_frame(sock, frame_parts(message))
        assert bytes(sock.sent) == frame(message.encode())
        assert sock.sendmsg_calls == 0

    def test_frame_parts_join_to_the_frame(self):
        for message in (
            Message(1, "m", False, b""),
            Message(2, "storage.get", True, PAYLOAD[:5000], "t" * 16, "p" * 16),
        ):
            assert b"".join(frame_parts(message)) == frame(message.encode())


class TestReadFrame:
    def test_large_frame_arrives_in_pieces(self):
        body = PAYLOAD[: LARGE_FRAME_BYTES * 3 + 5]
        assert _read_frame(Trickle(frame(body), step=9_999)) == body

    def test_large_frame_torn_mid_body(self):
        length = LARGE_FRAME_BYTES + 10
        torn = length.to_bytes(4, "big") + b"abc"
        with pytest.raises(
            ProtocolError,
            match=rf"^peer closed the connection mid-frame after 3 of {length} bytes$",
        ):
            _read_frame(Trickle(torn))


class TestWireBytes:
    def test_connection_writes_the_frame(self, small_send_buffers):
        listener = socket.create_server(("127.0.0.1", 0))
        connection = TcpConnection(*listener.getsockname(), timeout=10.0)
        replies = []
        caller = threading.Thread(
            target=lambda: replies.append(
                connection.client().call("storage.put_many", PAYLOAD)
            )
        )
        try:
            caller.start()
            peer, _ = listener.accept()
            with peer:
                expected = frame(Message(1, "storage.put_many", False, PAYLOAD).encode())
                time.sleep(0.1)  # let the sender fill its buffer
                assert _recv_all(peer, len(expected)) == expected
                peer.sendall(frame(Message(1, "storage.put_many", False, b"ok").encode()))
                caller.join(10.0)
            assert replies == [b"ok"]
        finally:
            connection.close()
            listener.close()

    def test_server_writes_the_frame(self, small_send_buffers):
        registry = ServiceRegistry()
        registry.register("echo", lambda payload: payload)
        server = TcpServer(registry)
        server.start()
        try:
            with socket.create_connection(server.address) as raw:
                raw.sendall(frame(Message(7, "echo", False, PAYLOAD).encode()))
                expected = frame(Message(7, "echo", False, PAYLOAD).encode())
                time.sleep(0.2)  # the server's send buffer fills: partial sends
                assert _recv_all(raw, len(expected)) == expected
        finally:
            server.stop()
