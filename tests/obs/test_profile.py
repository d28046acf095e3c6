"""The critical-path profile: synthetic trees with known overlaps, and a
real upload whose stages run on several threads at once."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chunking.chunker import ChunkingSpec
from repro.core.system import build_system
from repro.crypto.drbg import HmacDrbg
from repro.obs.profile import UNATTRIBUTED, profile


def span(name, start, end, *children):
    return {"name": name, "start_time": start, "end_time": end, "children": list(children)}


def test_a_leaf_root_is_all_unattributed():
    assert profile(span("upload", 2.0, 5.0)) == {UNATTRIBUTED: 3.0}


def test_gaps_between_sequential_children_stay_with_the_root():
    tree = span("op", 0, 10, span("a", 1, 3), span("b", 5, 9))
    assert profile(tree) == {"a": 2, "b": 4, UNATTRIBUTED: 4}


def test_overlapping_children_are_cut_where_the_later_one_began():
    # Two threads: a runs 0-6, b 4-10.  b ends last, so 4-10 is b's;
    # a keeps only 0-4.
    tree = span("op", 0, 10, span("a", 0, 6), span("b", 4, 10))
    assert profile(tree) == {"a": 4, "b": 6, UNATTRIBUTED: 0}


def test_a_child_inside_a_longer_sibling_is_off_the_path():
    tree = span("op", 0, 10, span("long", 2, 9), span("short", 3, 5))
    assert profile(tree) == {"long": 7, UNATTRIBUTED: 3}


def test_self_time_of_nested_spans():
    tree = span(
        "op", 0, 10,
        span("stage", 0, 10, span("x", 1, 4), span("y", 3, 8)),
    )
    assert profile(tree) == {"x": 2, "y": 5, "stage": 3, UNATTRIBUTED: 0}


def test_children_are_clipped_to_their_parent():
    # A handler span on another node whose clock runs slightly ahead.
    tree = span("op", 0, 10, span("rpc", 8, 12, span("km.sign", 9, 11.5)))
    assert profile(tree) == {"km.sign": 1, "rpc": 1, UNATTRIBUTED: 8}


def test_one_name_in_many_places_adds_up():
    tree = span(
        "op", 0, 10,
        span("upload.key_wait", 0, 2), span("upload.encrypt", 2, 5),
        span("upload.key_wait", 5, 6), span("upload.encrypt", 6, 10),
    )
    assert profile(tree) == {"upload.key_wait": 3, "upload.encrypt": 7, UNATTRIBUTED: 0}


def test_open_spans():
    tree = span("op", 0, 10, span("never-finished", 1, None))
    assert profile(tree) == {UNATTRIBUTED: 10}
    with pytest.raises(ValueError):
        profile(span("op", 0, None))


@st.composite
def trees(draw, start=0.0, end=100.0, depth=0):
    children = []
    if depth < 3:
        for _ in range(draw(st.integers(0, 4))):
            lo = draw(st.floats(start - 5, end))
            hi = draw(st.floats(lo, end + 5))
            children.append(draw(trees(lo, hi, depth + 1)))
    return span(draw(st.sampled_from("abcd")), start, end, *children)


@given(trees())
def test_the_profile_partitions_the_root(tree):
    times = profile(tree)
    assert all(value >= 0 for value in times.values())
    assert sum(times.values()) == pytest.approx(tree["end_time"] - tree["start_time"])


def test_a_pipelined_upload_sums_to_its_root():
    system = build_system(
        num_data_servers=2,
        chunking=ChunkingSpec(avg_size=256, min_size=64, max_size=1024),
        key_batch_size=16,
        rng=HmacDrbg(b"profile"),
    )
    client = system.new_client("alice")
    client.upload_batch_bytes = 4096
    try:
        client.upload("file", HmacDrbg(b"profile-data").random_bytes(40_000))
        root = client.tracer.last_trace()
    finally:
        client.close()
        system.close()
    assert root.name == "upload"
    tree = root.tree()
    times = profile(tree)
    stages = {"upload.key_blind", "upload.key_derive", "upload.encrypt", "upload.store"}
    assert stages <= set(times)
    assert sum(times.values()) == pytest.approx(root.duration, rel=0.02)

    # The stages overlap on their threads: their durations add up to
    # more than the critical path charges them.
    def durations(node):
        own = node["duration"] if node["name"] in stages else 0.0
        return own + sum(durations(child) for child in node["children"])

    assert durations(tree) >= sum(times[name] for name in stages)
