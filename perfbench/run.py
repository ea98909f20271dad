"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

``--workload`` is ``tables`` (the paper's Tables 1 and 2 through the
experiment engine), ``alloc-large`` (the allocator alone on large
generated functions) or ``serve-mix`` (open-loop hit/miss traffic
against ``repro serve``).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced run that measures the
per-layer breakdown.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The command exits non-zero when an output
check fails, and without a result when the sources are missing.  See
README.md for the workloads, the metrics and what each one moves.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from common import (END_TO_END, PER_LAYER, BenchError, clean_work,
                    import_path, machine, result, say)

#: workload name -> module
WORKLOADS = {"tables": "tables", "alloc-large": "alloc_large",
             "serve-mix": "serve_mix"}
DEFAULT_SEED = 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a fresh interpreter timing one set-up (see common.probe_setup)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_path()
        start = time.perf_counter()
        module = importlib.import_module(WORKLOADS[args.workload])
        state = module.setup(args.seed)
        setup_s = time.perf_counter() - start
        if args.setup_probe:
            print(setup_s)
            return 0
        say(f"perfbench {args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace} {machine()}")
        correct, attempted, failed, values = module.run(state, args,
                                                        setup_s)
        catalogue = PER_LAYER if args.trace else END_TO_END
        unknown = sorted(set(values) - set(catalogue))
        missing = [] if args.trace else sorted(set(END_TO_END) - set(values))
        if unknown or missing:
            raise BenchError(f"{args.workload}: metrics {unknown} are not "
                             f"in the catalogue, {missing} were not measured")
        say(f"  operations attempted {attempted}, failed {failed}")
        line = result(correct, attempted, failed, values, catalogue)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if not args.setup_probe:
            clean_work()
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
