"""Workload definitions, set-up, solves and output checks.

Every input is derived from the workload's configuration and the run's
``--seed``; the solver receives only the generated data, problem and
(for the resumed workload) the committed start state.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from padmm.admm import AdmmSolver
from padmm.blocks import BlockVector
from padmm.dataset import Dataset, read_container, write_container
from padmm.metrics import psnr
from padmm.mri import separable_problem
from padmm.pdhgm import PdhgmSolver
from padmm.pipeline import config_from_dict, mri_problem, simulate

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE_DIR = BENCH_DIR / "fixtures"
FIXTURE_MAGIC = "PADMM-BENCH-STATE 1"

# The two acceptance configurations of tests/test_acceptance.py.
LOW_NOISE = {
    "phantom": {"size": 96},
    "coils": {"count": 4, "seed": 11},
    "sampling": {"fraction": 0.25, "turns": 12.0, "sigma": 0.05, "seed": 7},
    "solver": {"delta": 0.2, "iterations": 1500},
    "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
}
HIGH_NOISE = {
    **LOW_NOISE,
    "sampling": {**LOW_NOISE["sampling"], "sigma": 0.95},
    "solver": {"delta": 1.0, "iterations": 1500},
    "weights": {"lam": 0.0149, "alpha0": 0.0135, "alpha": 0.9716},
}


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    ``iterations`` is the length of one solve; a run repeats the solve
    for its measuring time, but at least ``min_solves`` times, which
    fixes the sample count the tail percentile is chosen from.  The seed
    picks the power-iteration start vector and, unless the workload
    resumes from a ``fixture``, the k-space noise realization: a
    committed start state is a late iterate for exactly its own data.
    """

    name: str
    raw: dict
    algorithm: str
    iterations: int
    min_solves: int
    fixture: str | None = None

    def config(self, seed: int):
        raw = {**self.raw,
               "solver": {**self.raw.get("solver", {}),
                          "algorithm": self.algorithm, "seed": seed}}
        if self.fixture is None:
            raw["sampling"] = {**self.raw.get("sampling", {}), "seed": seed}
        return config_from_dict(raw)

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least 10 iterations beyond it."""
        n = self.iterations * self.min_solves
        return max(0, int(100 * (1 - 10 / n)))


WORKLOADS = {w.name: w for w in (
    Workload("cold-admm-96", LOW_NOISE, "admm", iterations=40, min_solves=3),
    Workload("late-pdhgm-96", HIGH_NOISE, "pdhgm", iterations=150,
             min_solves=3, fixture="late_pdhgm_96"),
    Workload("cold-admm-190", {}, "admm", iterations=3, min_solves=4),
)}


class FixtureError(RuntimeError):
    """The committed start state is missing, changed or corrupt."""


def fixture_paths(name: str):
    return FIXTURE_DIR / f"{name}.pad", FIXTURE_DIR / f"{name}.json"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def save_state(path: Path, u: BlockVector, mu: BlockVector):
    """Write (u, mu) as a padmm container; (2, H, W) blocks are split."""
    blocks = {}
    for prefix, bv in (("u", u), ("mu", mu)):
        for i, b in enumerate(bv.blocks):
            if b.ndim == 2:
                blocks[f"{prefix}{i}"] = b
            else:
                for j, part in enumerate(b):
                    blocks[f"{prefix}{i}.{j}"] = part
    write_container(path, FIXTURE_MAGIC, {"u": len(u), "mu": len(mu)}, blocks)


def load_state(name: str, u_shapes, mu_shapes):
    """Checksum-verified start state for a resumed workload."""
    pad, manifest = fixture_paths(name)
    if not pad.exists() or not manifest.exists():
        raise FixtureError(f"fixture {name} not found under {FIXTURE_DIR}")
    expected = json.loads(manifest.read_text())["sha256"]
    actual = sha256(pad)
    if actual != expected:
        raise FixtureError(f"fixture {pad.name} has sha256 {actual}, "
                           f"its manifest records {expected}")
    _meta, blocks = read_container(pad, FIXTURE_MAGIC)

    def gather(prefix, shapes):
        out = []
        for i, shape in enumerate(shapes):
            if len(shape) == 2:
                out.append(blocks[f"{prefix}{i}"])
            else:
                out.append(np.stack([blocks[f"{prefix}{i}.{j}"]
                                     for j in range(shape[0])]))
        return BlockVector(out)

    try:
        return gather("u", u_shapes), gather("mu", mu_shapes)
    except KeyError as exc:
        raise FixtureError(f"fixture {pad.name} lacks block {exc}") from exc


@dataclass
class Inputs:
    cfg: object
    dataset: Dataset
    problem: object
    round_trip_ok: bool
    dataset_bytes: int


def setup(workload: Workload, seed: int, workdir: Path, span=None) -> Inputs:
    """Simulate, round-trip the dataset, assemble, load the start state.

    ``span(name)`` is a context manager recording one traced span; set-up
    is untraced when it is None.
    """
    span = span or (lambda name: nullcontext())
    cfg = workload.config(seed)
    with span("pipeline.simulate"):
        dataset = simulate(cfg)
    workdir.mkdir(parents=True, exist_ok=True)
    first, second = workdir / "dataset.pad", workdir / "dataset-resaved.pad"
    with span("dataset.save"):
        dataset.save(first)
    with span("dataset.load"):
        loaded = Dataset.load(first)
    loaded.save(second)
    round_trip_ok = first.read_bytes() == second.read_bytes()
    problem = separable_problem(mri_problem(loaded, cfg))
    if workload.fixture:
        u, mu = load_state(workload.fixture, problem.u0.shapes,
                           problem.mu0.shapes)
        problem = replace(problem, u0=u, mu0=mu)
    return Inputs(cfg, loaded, problem, round_trip_ok, first.stat().st_size)


@dataclass
class Solve:
    wall_s: float
    iter_s: list
    u: BlockVector
    mu: BlockVector
    iterations: int
    aborted: bool


def solve(inputs: Inputs, workload: Workload, iterations: int,
          problem=None, wrap_step=None) -> Solve:
    """One solve from the workload's start, as ``pipeline.reconstruct``
    wires it; ``problem`` and ``wrap_step`` substitute traced objects."""
    problem = problem or inputs.problem
    cfg = replace(inputs.cfg.solver, max_iterations=iterations)
    stamps = []
    t0 = time.perf_counter()
    if workload.algorithm == "admm":
        cfg = replace(cfg, tau2_override=1.0 / cfg.delta)
        ap = problem.as_admm_problem()
        solver = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j, cfg)
        if wrap_step:
            solver.step = wrap_step(solver.step)
        state, report = solver.run(
            ap.u0, ap.v0, ap.mu0,
            callbacks=[lambda st: stamps.append(time.perf_counter())])
        u, mu = state.u, state.mu
    else:
        solver = PdhgmSolver(problem, cfg)
        if wrap_step:
            solver.step = wrap_step(solver.step)
        u, mu, report = solver.run(
            callbacks=[lambda u, mu: stamps.append(time.perf_counter())])
    wall = time.perf_counter() - t0
    iter_s = np.diff([t0] + stamps).tolist()
    return Solve(wall, iter_s, u, mu, report.iterations, report.aborted)


def rss_image(u0, coils) -> np.ndarray:
    """Root-sum-of-squares coil-combined modulus image."""
    return np.sqrt(sum(np.abs(u0 * c) ** 2 for c in coils))


def quality(inputs: Inputs, u: BlockVector) -> dict:
    """Objective and PSNRs of a final iterate, the same for both solvers.

    The objective is J(G(u)) + H(u) at the solver's own u; the constraint
    residual of the solvers' reports is not used because the dual-first
    solver stores step norms there instead.
    """
    p, ds = inputs.problem, inputs.dataset
    coils = u.blocks[1:]
    return {
        "objective": p.prox_j.penalty(p.g.evaluate(u)) + p.prox_h.penalty(u),
        "psnr_db": psnr(u[0], ds.phantom),
        "psnr_coil_db": psnr(rss_image(u[0], coils),
                             rss_image(ds.phantom, ds.coil_maps)),
    }


def check_solve(result: Solve, iterations: int, values: dict,
                reference: dict | None, bounds: dict) -> list:
    """Problems with one solve's outputs; an empty list means correct."""
    problems = []
    if result.aborted:
        problems.append("solver aborted")
    if result.iterations != iterations:
        problems.append(f"ran {result.iterations} of {iterations} iterations")
    if not (result.u.isfinite() and result.mu.isfinite()):
        problems.append("non-finite iterate")
    for name, value in values.items():
        if not np.isfinite(value):
            problems.append(f"{name} is {value}")
        elif reference is not None:
            ref = reference[name]
            if abs(value - ref) > bounds[name] * abs(ref):
                problems.append(f"{name} {value!r} is outside {bounds[name]} "
                                f"of the reference {ref!r}")
    return problems
