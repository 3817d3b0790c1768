"""Command line: ``run``, ``compare`` and the internal ``child``."""

from __future__ import annotations

import argparse
import json
import sys


def _parser() -> argparse.ArgumentParser:
    from perfbench.metrics import ALL

    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads, check outputs, print every metric")
    run.add_argument("--workload", choices=ALL, help="one workload (default: all five)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=10.0,
                     help="how long each workload's lead process measures")
    run.add_argument("--trace", nargs="?", const="both", default="0",
                     choices=("0", "1", "both"),
                     help="0: end-to-end only; 1: layer trace only; bare --trace: both")
    run.add_argument("--smoke", action="store_true",
                     help="one short block per workload, traced (for tests)")
    run.add_argument("--out", help="write the full record (and Chrome traces) here")

    compare = sub.add_parser("compare", help="B against A by the fixed bounds")
    compare.add_argument("a")
    compare.add_argument("b")

    child = sub.add_parser("child", help="(internal) one workload in this process")
    child.add_argument("--workload", choices=ALL, required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--launched-at", type=float, required=True)
    child.add_argument("--goals", type=int, default=1)
    child.add_argument("--trace", action="store_true")
    child.add_argument("--smoke", action="store_true")
    child.add_argument("--oracle", action="store_true")
    child.add_argument("--setup-only", action="store_true")
    child.add_argument("--trace-out")
    return parser


def main(argv=None) -> int:
    from perfbench import env

    args = _parser().parse_args(argv)
    if args.command == "compare":
        from perfbench import compare

        return compare.main(args.a, args.b)
    try:
        env.prepare()
    except env.NoProgramError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.command == "child":
        from perfbench import child

        record = child.measure(
            args.workload, args.seed, args.seconds, args.launched_at,
            trace=args.trace, smoke=args.smoke, oracle=args.oracle,
            trace_out=args.trace_out, setup_only=args.setup_only, goals=args.goals,
        )
        print(json.dumps(record))
        return 0

    from perfbench import runner

    names = (args.workload,) if args.workload else runner.WORKLOAD_NAMES
    trace = "1" if args.smoke else args.trace
    try:
        record = runner.run(names, args.seed, args.seconds, trace, args.smoke, args.out)
    except runner.ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(runner.table(record))
    print(runner.contract_line(record, trace))
    return 0 if runner.correct(record) else 1


if __name__ == "__main__":
    sys.exit(main())
