"""Command line of the claims benchmark.

    python -m benchmarks.e2e --seed N [--trace] [--sets 2]      the suite
    python -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1
    python -m benchmarks.e2e compare A.json B.json

With ``--workload`` the last line of standard output is one JSON object
with the metrics ``BENCHMARK.json`` declares.  The exit code is non-zero
when any operation failed or the oracle was tripped.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.e2e import PROCESS_START
from benchmarks.e2e.inputs import REFERENCE_SECONDS, WORKLOADS


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import compare_files

        if len(argv) != 3:
            print("usage: python -m benchmarks.e2e compare A.json B.json", file=sys.stderr)
            return 2
        return compare_files(argv[1], argv[2])

    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1, help="the only source of inputs")
    parser.add_argument(
        "--seconds", type=float, default=REFERENCE_SECONDS,
        help="target length of the measured phase; fixes the op counts",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run the traced pass and report per-layer metrics",
    )
    parser.add_argument("--sets", type=int, default=1, help="suite only: repeat and compare")
    parser.add_argument("--smoke", action="store_true", help="tiny counts (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.sets < 1:
        parser.error("--seconds must be positive and --sets at least 1")

    if args.workload is None:
        from benchmarks.e2e.compare import run_suite

        return run_suite(args.seed, args.seconds, bool(args.trace), args.smoke, args.sets)

    from benchmarks.e2e import runner

    if args.setup_only:
        sizes = runner.sizes_for(args.seconds, args.smoke)
        done = runner.run_pass(
            args.workload, args.seed, sizes, trace=False, started=PROCESS_START,
            setup_only=True,
        )
        print(json.dumps({"setup_s": done.setup_s, "setup_raw_s": done.setup_raw_s}))
        return 0
    result = runner.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    runner.write_result(result)
    runner.print_result(result)
    print(runner.contract_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
