"""Tier-1 checks of the figure benchmark's trace figures.

Calls ``benchmarks/bench_figs.py``'s Fig. 9 and Fig. 10 functions twice
at one seed.  Their counts must repeat exactly, and every count-based
check must pass: the generated Fslhomes trace against the paper's
storage aggregates (98.6 % saving, physical:stub 1.14), the real
``DataStore`` against the dedup accounting, and the 7-day replay's
key-cache and fragmentation shapes.  (Fig. 10's upload-speed check is a
timing and is left to the benchmark run.)
"""

import pytest

from benchmarks import bench_figs

SEED = 0

COUNT_CHECKS = {
    "fig9": {
        "fig9.saving",
        "fig9.physical_to_stub",
        "fig9.stub_catches_up",
        "fig9.daily_overhead",
        "fig9.engine_matches_accounting",
    },
    "fig10": {
        "fig10.day1_pays_oprf",
        "fig10.later_days_cached",
        "fig10.fetches_per_new_chunk_not_falling",
    },
}


@pytest.fixture(scope="module", params=sorted(COUNT_CHECKS))
def two_runs(request):
    figure = getattr(bench_figs, request.param)
    return request.param, figure(SEED), figure(SEED)


def test_counts_repeat_from_the_seed(two_runs):
    _name, (rows_a, _), (rows_b, _) = two_runs
    assert rows_a
    assert [(r["point"], r["counts"]) for r in rows_a] == [
        (r["point"], r["counts"]) for r in rows_b
    ]


def test_count_checks_pass(two_runs):
    name, *runs = two_runs
    for _rows, checks in runs:
        by_name = {c["name"]: c for c in checks}
        assert COUNT_CHECKS[name] <= by_name.keys()
        failed = [
            f"{check}: {by_name[check]['detail']}"
            for check in sorted(COUNT_CHECKS[name])
            if not by_name[check]["passed"]
        ]
        assert not failed
