"""Write the same-bits record of ``tests/test_golden.py``.

Each case is a small committed ``.pad`` dataset under ``tests/golden/``
and the settings below.  For each case and each algorithm the record
holds, after ``ITERATIONS`` steps, the final u and mu block by block,
the residual history and the tau1 history, and the fingerprint of the
machine that wrote it.

    python tests/make_golden.py            # the record, from the inputs
    python tests/make_golden.py --inputs   # simulate the inputs first

Rerun it only in a change that moves the iterates on purpose, and
quote the worst per-block relative change that ``test_golden`` reports
against the old record.  A change that keeps the bits leaves the record
alone.

The settings fix the number of power steps: ``power_iter_tol`` 0 never
stops them early, so a last-bit difference on another CPU cannot change
where power iteration stops.  ``power_iter_max`` is large enough that
no run warns of non-convergence.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # a script runs the checkout's sources, as tier-1
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.provenance import single_threaded
    single_threaded()

import numpy as np  # noqa: E402

from padmm.admm import AdmmSolver  # noqa: E402
from padmm.dataset import Dataset  # noqa: E402
from padmm.mri import separable_problem  # noqa: E402
from padmm.pdhgm import PdhgmSolver  # noqa: E402
from padmm.pipeline import (ALGORITHMS, config_from_dict,  # noqa: E402
                            mri_problem, simulate)

GOLDEN = ROOT / "tests" / "golden"
RECORD = GOLDEN / "record.npz"
ITERATIONS = 30

CASES = {
    "scalar16": {
        "phantom": {"size": 16},
        "coils": {"count": 2, "seed": 1},
        "sampling": {"fraction": 0.3, "turns": 3.0, "sigma": 0.05,
                     "seed": 0},
        "solver": {"delta": 0.5, "iterations": ITERATIONS,
                   "power_iter_tol": 0.0, "power_iter_max": 100},
        "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
    },
    "percoil24": {
        "phantom": {"size": 24},
        "coils": {"count": 3, "seed": 2},
        "sampling": {"fraction": 0.3, "turns": 3.0, "sigma": 0.05,
                     "seed": 1},
        "solver": {"delta": 0.2, "iterations": ITERATIONS,
                   "power_iter_tol": 0.0, "power_iter_max": 100},
        "weights": {"lam": [0.05, 0.0621, 0.07], "alpha0": 0.062,
                    "alpha": [0.9, 0.9317, 0.95]},
    },
}


def fingerprint() -> str:
    """numpy's version, its BLAS build and the CPU features it found."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return json.dumps({
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or (
            f"{blas.get('name')} {blas.get('version')}"),
        "cpu_features": sorted(config["SIMD Extensions"]["found"]),
    }, sort_keys=True)


def solve(case: str, algorithm: str) -> dict:
    """Arrays named "u0", "u1", ..., "mu0", ..., "residuals" and "tau1"
    after ``ITERATIONS`` steps of ``algorithm`` on the case's input."""
    exp = config_from_dict(CASES[case])
    problem = separable_problem(
        mri_problem(Dataset.load(GOLDEN / f"{case}.pad"), exp))
    if algorithm == "admm":
        ap = problem.as_admm_problem()
        solver = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j, exp.solver)
        start = solver.start(ap.u0, ap.v0, ap.mu0)
    else:
        solver = PdhgmSolver(problem, exp.solver)
        start = solver.start()
    residuals, tau1 = [], []
    for state in solver.iterates(start):
        residuals.append(state.residual)
        tau1.append(state.tau1)
    arrays = {"residuals": np.array(residuals), "tau1": np.array(tau1)}
    arrays.update({f"u{i}": b for i, b in enumerate(state.u.blocks)})
    arrays.update({f"mu{i}": b for i, b in enumerate(state.mu.blocks)})
    return arrays


def write_inputs():
    for case, raw in CASES.items():
        dataset = replace(simulate(config_from_dict(raw)),
                          phantom=None, coil_maps=None)
        dataset.save(GOLDEN / f"{case}.pad")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", action="store_true",
                        help="simulate the .pad inputs before the record")
    args = parser.parse_args(argv)
    GOLDEN.mkdir(exist_ok=True)
    if args.inputs:
        write_inputs()
    record = {"fingerprint": np.array(fingerprint())}
    for case in CASES:
        for algorithm in ALGORITHMS:
            record.update({f"{case}/{algorithm}/{name}": a for name, a
                           in solve(case, algorithm).items()})
    np.savez_compressed(RECORD, **record)
    print(f"{RECORD}: {len(record) - 1} arrays, "
          f"{RECORD.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
