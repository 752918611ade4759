"""HSLB benchmark entry point.

    python3 hslbbench/run.py --workload tune-paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Prints a human summary, then as its
last stdout line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, the ``per_layer`` ones with ``--trace 1``.  Exits non-zero
without a result when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the workloads bring their own concurrency (the daemon's
# solver thread beside two senders on a 2-core box) and threaded BLAS on
# these small systems only adds run-to-run noise.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no library to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import result_line
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    # SIGTERM unwinds like Ctrl-C, so every finally block stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for note in outcome.notes:
        print(note)
    for metric in declared:
        print(f"  {metric['name']:<32} {outcome.values[metric['name']]:>14.6g} "
              f"{metric['unit']}")
    print(result_line(outcome.correct, outcome.tally, outcome.values, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
