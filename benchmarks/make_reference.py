"""Record the reference quality values the benchmark checks outputs against.

For every workload, solves once per seed in SEEDS and writes the median
objective, raw PSNR and coil-combined PSNR to
``benchmarks/reference.json``, with the per-seed values.  A run's output
is correct when each value lies within the metric's bound (a share, from
BENCHMARK.json) of the reference, so the bound must cover the spread
between seeds, which this script prints.  Run from the root of a
checkout, and only when a change to the iteration is intended:

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from provenance import git_commit, single_threaded

BENCH_DIR = Path(__file__).resolve().parent
SEEDS = range(1, 6)


def main() -> int:
    single_threaded()
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from workloads import WORKLOADS, quality, setup, solve

    out = {"source_commit": git_commit(), "seeds": list(SEEDS)}
    for name, workload in WORKLOADS.items():
        per_seed = []
        for seed in SEEDS:
            inputs = setup(workload, seed, BENCH_DIR / "results" / "work" / "reference")
            result = solve(inputs, workload, workload.iterations)
            per_seed.append(quality(inputs, result.u))
        ref = {k: statistics.median(q[k] for q in per_seed) for k in per_seed[0]}
        out[name] = {**ref, "per_seed": per_seed}
        for k, v in ref.items():
            worst = max(abs(q[k] - v) / abs(v) for q in per_seed)
            print(f"{name} {k}: reference {v!r}, largest seed deviation {worst:.2e}")
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
