"""Wire-error fidelity over a real TCP server.

Every exception class in ``_WIRE_ERRORS`` must cross a genuine socket
and re-raise client-side as the *same class with the same message* —
that contract is what lets the retry layer and the key client make
semantic decisions (back off vs. give up vs. not-retry) without string
matching.  Also covers the batch-level variant: one failing item in a
``put_many`` batch travels as an encoded error while its neighbours
succeed.
"""

import pytest

from repro.core.server import REEDServer
from repro.core.service import RemoteStorageService, register_storage_service
from repro.crypto.hashing import fingerprint
from repro.net.rpc import _WIRE_ERRORS, ServiceRegistry, decode_error, encode_error
from repro.net.tcp import TcpConnection, TcpServer
from repro.util.errors import IntegrityError, NotFoundError, ReproError


@pytest.fixture()
def tcp_service():
    """A TCP server whose ``raise/<Name>`` methods raise each wire error,
    plus a storage service for the batch partial-failure case."""
    registry = ServiceRegistry()
    for name, exc_class in _WIRE_ERRORS.items():
        def handler(payload, exc_class=exc_class):
            raise exc_class(payload.decode("utf-8"))

        registry.register(f"raise/{name}", handler)
    server_obj = REEDServer()
    register_storage_service(registry, server_obj)
    server = TcpServer(registry)
    server.start()
    connection = TcpConnection(*server.address)
    try:
        yield connection.client(), server_obj
    finally:
        connection.close()
        server.stop()


class TestEveryWireErrorRoundTrips:
    def test_all_classes_and_messages_preserved(self, tcp_service):
        client, _server = tcp_service
        for name, exc_class in _WIRE_ERRORS.items():
            message = f"diagnostic for {name}"
            with pytest.raises(exc_class) as excinfo:
                client.call(f"raise/{name}", message.encode("utf-8"))
            # Exact class, not merely a ReproError subclass.
            assert type(excinfo.value) is exc_class
            assert str(excinfo.value) == message

    def test_unknown_class_degrades_to_base_error(self):
        # encode_error maps unlisted classes to ReproError rather than
        # leaking arbitrary type names onto the wire.
        class HomegrownError(ReproError):
            pass

        decoded = decode_error(encode_error(HomegrownError("local detail")))
        assert type(decoded) is ReproError
        assert str(decoded) == "local detail"


class TestBatchPartialFailure:
    def test_one_bad_item_does_not_poison_the_batch(self, tcp_service):
        client, server = tcp_service
        storage = RemoteStorageService(client)
        good_a = b"first good chunk"
        good_b = b"second good chunk"
        batch = [
            (fingerprint(good_a), good_a),
            (fingerprint(b"something else"), b"tampered payload"),
            (fingerprint(good_b), good_b),
        ]
        statuses = storage.chunk_put_many(batch)
        assert statuses[0] is True
        assert statuses[2] is True
        assert isinstance(statuses[1], IntegrityError)
        assert "fingerprint" in str(statuses[1])
        # The good neighbours really were stored, the bad item was not.
        assert storage.chunk_exists_batch(
            [fingerprint(good_a), fingerprint(b"something else"), fingerprint(good_b)]
        ) == [True, False, True]
        assert server.stats.chunks_stored == 2

    def test_duplicate_items_report_dup_status(self, tcp_service):
        client, _server = tcp_service
        storage = RemoteStorageService(client)
        data = b"stored twice"
        batch = [(fingerprint(data), data)]
        assert storage.chunk_put_many(batch) == [True]  # new
        assert storage.chunk_put_many(batch) == [False]  # duplicate

    def test_whole_batch_error_still_raises(self, tcp_service):
        client, _server = tcp_service
        storage = RemoteStorageService(client)
        with pytest.raises(NotFoundError):
            storage.chunk_get_batch([fingerprint(b"never-written")])
