"""Produce the late-phase start state of the late-pdhgm-96 workload.

Runs the dual-first solver on the high-noise acceptance configuration
from the all-ones start for 1000 iterations and writes (u, mu) to
``benchmarks/fixtures/late_pdhgm_96.pad``, with a manifest holding its
sha256, the command and the source commit.  Run once, from the root of
a checkout, and commit both files:

    python3 benchmarks/make_fixture.py
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from provenance import git_commit, single_threaded, source_sha256

BENCH_DIR = Path(__file__).resolve().parent
ITERATIONS = 1000
SOLVER_SEED = 0


def main() -> int:
    single_threaded()
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from padmm.mri import separable_problem
    from padmm.pdhgm import PdhgmSolver
    from padmm.pipeline import mri_problem, simulate

    from workloads import WORKLOADS, fixture_paths, save_state, sha256

    workload = WORKLOADS["late-pdhgm-96"]
    cfg = workload.config(SOLVER_SEED)
    problem = separable_problem(mri_problem(simulate(cfg), cfg))
    t0 = time.perf_counter()
    u, mu, report = PdhgmSolver(
        problem, replace(cfg.solver, max_iterations=ITERATIONS)).run()
    if report.aborted or report.iterations != ITERATIONS:
        print(f"error: solver stopped after {report.iterations} iterations: "
              f"{report.abort_message}", file=sys.stderr)
        return 1
    pad, manifest = fixture_paths(workload.fixture)
    pad.parent.mkdir(parents=True, exist_ok=True)
    save_state(pad, u, mu)
    manifest.write_text(json.dumps({
        "sha256": sha256(pad),
        "workload": workload.name,
        "iterations": ITERATIONS,
        "algorithm": workload.algorithm,
        "noise_seed": cfg.sampling.noise_seed,
        "solver_seed": SOLVER_SEED,
        "command": "python3 benchmarks/make_fixture.py",
        "source_commit": git_commit(),
        "source_sha256": source_sha256(),
        "solve_s": round(time.perf_counter() - t0, 1),
    }, indent=1) + "\n")
    print(f"wrote {pad} and {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
