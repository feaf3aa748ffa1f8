#!/usr/bin/env python3
"""Benchmark launcher for wiretap-mimo.

    python3 bench/run.py --workload sweep_auto --seed 1 --seconds 40 --trace 0

Runs one workload (sweep_auto, certify_grid or oracle_mc, see
bench/README.md) against the package under ``src/`` of this checkout, in
this process and with BLAS pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes one untraced and one traced pass
through the op pool, prints the per-layer metrics and writes every span to
``bench/.work/spans-<workload>.tsv``.  Details (output digest, flagged
rows, tail percentile, environment, span coverage) go to a JSON line on
stdout; the last stdout line is the result object.  Exits 1 without a
result when the package cannot be imported from ``src/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 5


def import_seconds(src: str) -> float:
    """Median time for a fresh interpreter to import numpy and the package,
    as every CLI invocation from a shell pays it."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, wiretap_mimo"],
                       env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_auto", "certify_grid", "oracle_mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out",
                        help="write the traced spans here (TSV) instead of "
                             "bench/.work/spans-<workload>.tsv")
    args = parser.parse_args(argv)

    # numpy reads these when it loads BLAS, so they must be set first
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import wiretap_mimo
    src = os.path.join(ROOT, "src", "wiretap_mimo")
    if os.path.dirname(os.path.abspath(wiretap_mimo.__file__)) != src:
        print(f"error: wiretap_mimo imported from {wiretap_mimo.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 1
    import_s = import_seconds(os.path.join(ROOT, "src"))

    import harness
    result, details = harness.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), import_s=import_s,
                                  spans_out=args.spans_out)
    harness.report_flags(details)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
