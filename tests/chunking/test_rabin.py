"""Tests for Rabin-fingerprint content-defined chunking."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.rabin import (
    BOUNDARY_MAGIC,
    DEFAULT_AVG_SIZE,
    DEFAULT_MAX_SIZE,
    DEFAULT_MIN_SIZE,
    ENGINES,
    WINDOW_SIZE,
    RabinChunker,
    _PIECE_BYTES,
    _lane_hits,
    _ReferenceEngine,
    _scalar_hits,
    rabin_chunks,
    window_fingerprint,
)
from repro.util.errors import ConfigurationError
from repro.workloads.synthetic import unique_data

SMALL = dict(min_size=64, max_size=512, avg_size=128)


def _chunks_with_feed(engine, data, feed, sizes=SMALL):
    """Drive a chunker with ``feed``-byte update calls."""
    chunker = RabinChunker(engine=engine, **sizes)
    out = []
    for start in range(0, len(data), feed):
        out.extend(chunker.update(data[start : start + feed]))
    tail = chunker.finalize()
    if tail is not None:
        out.append(tail)
    return out


class TestReassembly:
    @given(st.binary(max_size=8192))
    def test_chunks_reassemble(self, data):
        chunks = list(rabin_chunks(data, **SMALL))
        assert b"".join(chunks) == data

    def test_empty_input(self):
        assert list(rabin_chunks(b"", **SMALL)) == []

    def test_streamed_blocks_equal_one_shot(self):
        data = unique_data(20_000, seed=1)
        one_shot = list(rabin_chunks(data, **SMALL))
        blocks = [data[i : i + 997] for i in range(0, len(data), 997)]
        streamed = list(rabin_chunks(blocks, **SMALL))
        assert streamed == one_shot


class TestBounds:
    def test_size_bounds(self):
        data = unique_data(50_000, seed=2)
        chunks = list(rabin_chunks(data, **SMALL))
        for chunk in chunks[:-1]:
            assert SMALL["min_size"] <= len(chunk) <= SMALL["max_size"]
        assert len(chunks[-1]) <= SMALL["max_size"]

    def test_average_in_plausible_range(self):
        data = unique_data(300_000, seed=3)
        chunks = list(rabin_chunks(data, **SMALL))
        avg = len(data) / len(chunks)
        # Geometric-ish distribution clamped at [min, max]; the realized
        # mean should land within a factor of ~2 of the target.
        assert SMALL["avg_size"] / 2 <= avg <= SMALL["avg_size"] * 3

    def test_paper_defaults(self):
        assert DEFAULT_MIN_SIZE == 2 * 1024
        assert DEFAULT_MAX_SIZE == 16 * 1024
        assert DEFAULT_AVG_SIZE == 8 * 1024


class TestContentDefined:
    def test_deterministic(self):
        data = unique_data(30_000, seed=4)
        assert list(rabin_chunks(data, **SMALL)) == list(rabin_chunks(data, **SMALL))

    def test_boundary_stability_under_prefix_insertion(self):
        """Inserting bytes at the front must leave most downstream chunk
        boundaries intact — the property that protects dedup from edits."""
        data = unique_data(60_000, seed=5)
        original = set(rabin_chunks(data, **SMALL))
        shifted = set(rabin_chunks(b"INSERTED-PREFIX-BYTES" + data, **SMALL))
        common = original & shifted
        # The vast majority of chunks should be shared.
        assert len(common) >= 0.7 * len(original)

    def test_identical_regions_chunk_identically(self):
        shared = unique_data(40_000, seed=6)
        a = list(rabin_chunks(unique_data(5_000, seed=7) + shared, **SMALL))
        b = list(rabin_chunks(unique_data(5_000, seed=8) + shared, **SMALL))
        assert set(a) & set(b), "shared region produced no common chunks"


class TestWindowProperty:
    def test_rolling_fingerprint_is_window_local(self):
        """After any prefix, the rolling fingerprint equals the direct
        fingerprint of just the last WINDOW_SIZE bytes — the sliding-window
        property that skip-ahead and edit-resilient dedup both rest on
        (the seed implementation violated this; see the module docstring)."""
        data = unique_data(1_000, seed=11)
        engine = _ReferenceEngine(**SMALL)
        for end in (WINDOW_SIZE, 100, 347, 1_000):
            engine = _ReferenceEngine(**SMALL)
            for byte in data[:end]:
                engine._roll(byte)
            assert engine._fingerprint == window_fingerprint(
                data[end - WINDOW_SIZE : end]
            ), end


class TestEngineEquivalence:
    """Accelerated engines must cut bit-identical boundaries to the
    reference at every update() granularity."""

    @pytest.mark.parametrize(
        "feed",
        [
            pytest.param(1, marks=pytest.mark.slow),  # 1-byte feeds: O(n) updates
            7,
            100,
            1_000,
            50_000,
        ],
    )
    def test_engines_match_reference_across_feeds(self, feed):
        data = unique_data(50_000, seed=12)
        expected = _chunks_with_feed("reference", data, 50_000)
        for engine in ENGINES:
            assert _chunks_with_feed(engine, data, feed) == expected, (engine, feed)

    @settings(max_examples=25)
    @given(
        st.binary(max_size=4_000),
        st.sampled_from([1, 3, 64, 4_000]),
    )
    def test_differential_random(self, data, feed):
        expected = _chunks_with_feed("reference", data, max(feed, 1))
        for engine in ENGINES:
            assert _chunks_with_feed(engine, data, feed) == expected, (engine, feed)

    @pytest.mark.slow
    def test_engines_match_on_low_entropy_data(self):
        # Repetitive data exercises the forced max_size cuts heavily.
        data = (b"\x00" * 4_000) + (b"ab" * 2_000) + unique_data(4_000, seed=13)
        expected = _chunks_with_feed("reference", data, len(data))
        for engine in ENGINES:
            for feed in (1, 513, len(data)):
                assert _chunks_with_feed(engine, data, feed) == expected

    def test_explicit_engine_on_chunker(self):
        data = unique_data(10_000, seed=14)
        for engine in ENGINES:
            chunker = RabinChunker(engine=engine, **SMALL)
            assert chunker.engine == engine
            chunks = list(chunker.update(data))
            tail = chunker.finalize()
            assert b"".join(chunks) + (tail or b"") == data

    def test_unknown_engine_rejected(self):
        # "scan", the retired pure-Python engine, is unknown too.
        for engine in ("bogus", "scan"):
            with pytest.raises(ConfigurationError, match="'reference', 'numpy'"):
                RabinChunker(engine=engine, **SMALL)


def _reference_hits(region, mask):
    """Offsets ``j`` whose window ``region[j+1 : j+WINDOW_SIZE+1]`` matches,
    by the reference engine's rolling update."""
    engine = _ReferenceEngine(**SMALL)
    hits = []
    for i, byte in enumerate(region[1:]):
        engine._roll(byte)
        if i >= WINDOW_SIZE - 1 and (engine._fingerprint & mask) == BOUNDARY_MAGIC & mask:
            hits.append(i - (WINDOW_SIZE - 1))
    return hits


#: Period-8 data whose every eighth window matches the SMALL mask.
PERIODIC = bytes(range(2, 58, 7)) * 4_000
WIDE = dict(min_size=1024, max_size=1 << 19, avg_size=1 << 17)


class TestLaneEdges:
    """The numpy engine's lane scan at its edges, against the reference."""

    @pytest.mark.parametrize(
        "count",
        [1, 2, 47, 48, 49, 63, 64, 65, 95, 96, 97, 127, 128, 129]
        + [4095, 4096, 4097, 64 * 70 - 1, 64 * 70, 64 * 70 + 1],
    )
    def test_region_lengths(self, count):
        region = unique_data(count + WINDOW_SIZE, seed=count)
        expected = _reference_hits(region, 63)
        assert _lane_hits(region, 63, BOUNDARY_MAGIC & 63) == expected
        assert _scalar_hits(region, 63, BOUNDARY_MAGIC & 63) == expected

    @settings(max_examples=30)
    @given(
        st.binary(min_size=WINDOW_SIZE + 1, max_size=3_000),
        st.sampled_from([63, 127, 8191, (1 << 17) - 1]),
    )
    def test_random_regions(self, region, mask):
        # region[0] is arbitrary: the stand-in byte must cancel out.
        assert _lane_hits(region, mask, BOUNDARY_MAGIC & mask) == _reference_hits(region, mask)

    @pytest.mark.parametrize("count", [(1 << 18) - 1, 1 << 18, (1 << 18) + 257])
    def test_both_sides_of_lane_length_switch(self, count):
        data = unique_data(count + WINDOW_SIZE - 1, seed=21)
        expected = _chunks_with_feed("reference", data, len(data))
        assert _chunks_with_feed("numpy", data, len(data)) == expected

    @pytest.mark.parametrize("feed", [1, 4095, 4097])
    def test_feeds_around_scalar_switch(self, feed):
        data = unique_data(40_000, seed=22)
        expected = _chunks_with_feed("reference", data, len(data))
        assert _chunks_with_feed("numpy", data, feed) == expected

    def test_all_zero_input_cuts_only_at_max(self):
        data = bytes(30_000)
        expected = _chunks_with_feed("reference", data, len(data))
        assert {len(c) for c in expected[:-1]} == {SMALL["max_size"]}
        for feed in (len(data), 4097):
            assert _chunks_with_feed("numpy", data, feed) == expected

    def test_short_period_data_dense_candidates(self):
        region = bytes(1) + PERIODIC[:6_000]
        assert len(_lane_hits(region, 127, BOUNDARY_MAGIC & 127)) >= 6_000 // 8 - 8
        expected = _chunks_with_feed("reference", PERIODIC, len(PERIODIC))
        for feed in (len(PERIODIC), 4097):
            assert _chunks_with_feed("numpy", PERIODIC, feed) == expected

    def test_wide_mask_cuts_like_reference(self):
        # A 17-bit boundary mask: the lanes roll the full fingerprint.
        data = unique_data(1 << 20, seed=23)
        expected = _chunks_with_feed("reference", data, len(data), WIDE)
        assert len(expected) > len(data) // WIDE["max_size"] + 1
        assert _chunks_with_feed("numpy", data, len(data), WIDE) == expected

    def test_auto_engine_picks_numpy_on_wide_mask(self):
        assert RabinChunker(**WIDE).engine == "numpy"


#: Feed sizes on both sides of the scalar (4 KiB) and lane-length
#: (256 KiB) switches; each update scans exactly the bytes it feeds.
SWITCH_FEEDS = [4095, 4096, 4097, 4096 + WINDOW_SIZE, (1 << 18) - 1, 1 << 18, (1 << 18) + 4097]


class TestWorkspaceReuse:
    """Scans of every size share reused workspaces; no scan may see what
    an earlier, larger or differently shaped one left in them."""

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.sampled_from(SWITCH_FEEDS), min_size=2, max_size=3), st.integers(0, 1 << 16))
    def test_back_to_back_feeds_cut_like_reference(self, feeds, seed):
        data = unique_data(sum(feeds), seed=seed)
        chunker = RabinChunker(engine="numpy")
        chunks, start = [], 0
        for feed in feeds:
            chunks.extend(chunker.update(data[start : start + feed]))
            start += feed
        tail = chunker.finalize()
        if tail is not None:
            chunks.append(tail)
        assert chunks == list(rabin_chunks(data, engine="reference"))

    @pytest.mark.parametrize("mask", [8191, (1 << 17) - 1])
    def test_large_small_large_regions_against_scalar(self, mask):
        magic = BOUNDARY_MAGIC & mask
        # Two pieces (three for the wide mask), then a short-lane region.
        for size, seed in ((_PIECE_BYTES + 4097, 31), (5_000, 32), (_PIECE_BYTES // 2, 33)):
            region = unique_data(size + WINDOW_SIZE, seed=seed)
            assert _lane_hits(memoryview(region), mask, magic) == _scalar_hits(region, mask, magic)

    def test_warm_scan_allocates_far_less_than_its_region(self):
        region = memoryview(unique_data(_PIECE_BYTES + WINDOW_SIZE, seed=34))
        _lane_hits(region, 8191, BOUNDARY_MAGIC & 8191)  # makes the workspace
        tracemalloc.start()
        try:
            _lane_hits(region, 8191, BOUNDARY_MAGIC & 8191)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(region) // 8


class TestValidation:
    def test_avg_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            RabinChunker(min_size=64, max_size=512, avg_size=100)

    def test_ordering_constraints(self):
        with pytest.raises(ConfigurationError):
            RabinChunker(min_size=512, max_size=128, avg_size=256)

    def test_min_must_exceed_window(self):
        with pytest.raises(ConfigurationError):
            RabinChunker(min_size=WINDOW_SIZE, max_size=1024, avg_size=256)

    def test_finalize_resets(self):
        chunker = RabinChunker(**SMALL)
        data = unique_data(100, seed=9)
        emitted = list(chunker.update(data))
        tail = chunker.finalize()
        assert b"".join(emitted) + (tail or b"") == data
        assert chunker.finalize() is None
