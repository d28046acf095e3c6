"""Tests for remote data checking (Merkle audits)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.server import REEDServer
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import fingerprint, sha256
from repro.storage.audit import (
    AuditResponse,
    FileAuditor,
    make_challenge,
    merkle_root,
    prove,
    verify,
)
from repro.util.errors import ConfigurationError, IntegrityError, NotFoundError


def fps(n):
    return [sha256(bytes([i])) for i in range(n)]


class TestMerkleRoot:
    def test_deterministic(self):
        assert merkle_root(fps(7)) == merkle_root(fps(7))

    def test_sensitive_to_content(self):
        a = fps(8)
        b = fps(8)
        b[3] = sha256(b"different")
        assert merkle_root(a) != merkle_root(b)

    def test_sensitive_to_order(self):
        a = fps(4)
        assert merkle_root(a) != merkle_root(list(reversed(a)))

    def test_single_leaf(self):
        root = merkle_root(fps(1))
        assert len(root) == 32

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            merkle_root([])

    @given(st.integers(1, 40))
    def test_any_size_verifies(self, n):
        data = [bytes([i]) * 10 for i in range(n)]
        fingerprints = [sha256(d) for d in data]
        lookup = dict(zip(fingerprints, data))
        root = merkle_root(fingerprints)
        challenge = make_challenge("f", n, min(5, n), HmacDrbg(b"c"))
        response = prove(challenge, fingerprints, lambda fp: lookup[fp])
        verify(root, challenge, response)


class TestChallenge:
    def test_positions_distinct_and_in_range(self):
        challenge = make_challenge("f", 100, 30, HmacDrbg(b"c"))
        assert len(set(challenge.positions)) == 30
        assert all(0 <= p < 100 for p in challenge.positions)

    def test_sample_clamped_to_chunk_count(self):
        challenge = make_challenge("f", 3, 30, HmacDrbg(b"c"))
        assert len(challenge.positions) == 3

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            make_challenge("f", 0, 5)
        with pytest.raises(ConfigurationError):
            make_challenge("f", 5, 0)


class TestProveVerify:
    def setup_file(self, n=16):
        data = [bytes([i]) * 50 for i in range(n)]
        fingerprints = [sha256(d) for d in data]
        return data, fingerprints, merkle_root(fingerprints)

    def test_honest_server_passes(self):
        data, fingerprints, root = self.setup_file()
        lookup = dict(zip(fingerprints, data))
        challenge = make_challenge("f", 16, 6, HmacDrbg(b"c"))
        response = prove(challenge, fingerprints, lambda fp: lookup[fp])
        verify(root, challenge, response)

    def test_corrupted_chunk_detected(self):
        data, fingerprints, root = self.setup_file()
        lookup = dict(zip(fingerprints, data))
        victim = fingerprints[5]
        lookup[victim] = b"rotted bytes"
        challenge = make_challenge("f", 16, 16, HmacDrbg(b"c"))  # hits all
        response = prove(challenge, fingerprints, lambda fp: lookup[fp])
        with pytest.raises(IntegrityError):
            verify(root, challenge, response)

    def test_wrong_file_rejected(self):
        data, fingerprints, root = self.setup_file()
        lookup = dict(zip(fingerprints, data))
        challenge = make_challenge("f", 16, 4, HmacDrbg(b"c"))
        response = prove(challenge, fingerprints, lambda fp: lookup[fp])
        renamed = AuditResponse(file_id="other", paths=response.paths)
        with pytest.raises(IntegrityError):
            verify(root, challenge, renamed)

    def test_partial_answer_rejected(self):
        data, fingerprints, root = self.setup_file()
        lookup = dict(zip(fingerprints, data))
        challenge = make_challenge("f", 16, 4, HmacDrbg(b"c"))
        response = prove(challenge, fingerprints, lambda fp: lookup[fp])
        partial = AuditResponse(file_id="f", paths=response.paths[:-1])
        with pytest.raises(IntegrityError):
            verify(root, challenge, partial)

    def test_out_of_range_challenge_rejected(self):
        data, fingerprints, _root = self.setup_file(4)
        lookup = dict(zip(fingerprints, data))
        bad = make_challenge("f", 8, 8, HmacDrbg(b"c"))  # positions up to 7
        with pytest.raises(ConfigurationError):
            prove(bad, fingerprints, lambda fp: lookup[fp])


class TestFileAuditor:
    def test_audit_against_real_server(self):
        server = REEDServer()
        data = [bytes([i]) * 100 for i in range(20)]
        payload = [(fingerprint(d), d) for d in data]
        server.chunk_put_many(payload)
        auditor = FileAuditor(server, rng=HmacDrbg(b"a"))
        auditor.register("file", [fp for fp, _ in payload])
        assert auditor.audit("file", sample_size=8) == 8

    def test_audit_detects_loss(self):
        server = REEDServer()
        data = [bytes([i]) * 100 for i in range(10)]
        payload = [(fingerprint(d), d) for d in data]
        server.chunk_put_many(payload)
        auditor = FileAuditor(server, rng=HmacDrbg(b"a"))
        auditor.register("file", [fp for fp, _ in payload])
        # The server loses a chunk (GC bug, disk loss...).
        server.chunk_release_batch([payload[4][0]])
        with pytest.raises((IntegrityError, NotFoundError)):
            auditor.audit("file", sample_size=10)

    def test_unregistered_file(self):
        auditor = FileAuditor(REEDServer())
        with pytest.raises(NotFoundError):
            auditor.audit("ghost")
