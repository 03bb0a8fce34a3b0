"""Experiment orchestration: configs, simulate / reconstruct / evaluate."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

from . import admm
from .admm import SolverConfig
from .dataset import Dataset, ReconstructionRecord, atomic_write
from .metrics import format_metrics, psnr, write_pgm, zero_fill_baseline
from .mri import MriProblem, separable_problem
from .pdhgm import PdhgmSolver, equivalence_check
from .phantom import (MaskFractionError, PhantomSpec, SamplingSpec,
                      build_phantom, make_coil_maps, simulate_kspace,
                      spiral_mask)

ALGORITHMS = ("admm", "pdhgm")


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit status 2)."""


@dataclass
class ExperimentConfig:
    phantom: PhantomSpec
    coils: int
    coil_seed: int
    sampling: SamplingSpec
    solver: SolverConfig
    algorithm: str
    lam: object
    alpha0: float
    alpha: object
    output: str = "out"

    def validate(self) -> "ExperimentConfig":
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        if self.coils < 1:
            raise ConfigError("coil count must be at least 1")
        try:
            self.sampling.validate()
            self.solver.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self


SECTIONS = ("phantom", "coils", "sampling", "solver", "weights")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config from nested key/value data.

    Each key is popped as it is read, so a key left over is unknown and
    is rejected instead of silently ignored.
    """
    raw = dict(raw)
    sections = [raw.pop(name, {}) for name in SECTIONS]
    if not all(isinstance(section, dict) for section in sections):
        raise ConfigError(f"config sections {SECTIONS} must be mappings")
    ph, co, sa, so, we = sections = [dict(section) for section in sections]
    try:
        cfg = ExperimentConfig(
            phantom=PhantomSpec(size=int(ph.pop("size", 190))),
            coils=int(co.pop("count", 8)),
            coil_seed=int(co.pop("seed", 1)),
            sampling=SamplingSpec(
                fraction=float(sa.pop("fraction", 0.25)),
                turns=float(sa.pop("turns", 12.0)),
                sigma=float(sa.pop("sigma", 0.05)),
                noise_seed=int(sa.pop("seed", 0)),
            ),
            solver=SolverConfig(
                delta=float(so.pop("delta", 1.0)),
                theta=float(so.pop("theta", 0.99)),
                max_iterations=int(so.pop("iterations", 1500)),
                power_iter_tol=float(so.pop("power_iter_tol", 1e-7)),
                power_iter_max=int(so.pop("power_iter_max", 100)),
                seed=int(so.pop("seed", 0)),
            ),
            algorithm=str(so.pop("algorithm", "admm")),
            lam=we.pop("lam", 0.0621),
            alpha0=float(we.pop("alpha0", 0.062)),
            alpha=we.pop("alpha", 0.9317),
            output=str(raw.pop("output", "out")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    unknown = [str(key) for key in raw] + [
        f"{name}.{key}" for name, section in zip(SECTIONS, sections)
        for key in section]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(raw)


def simulate(cfg: ExperimentConfig) -> Dataset:
    """Generate phantom, coil maps, mask and noisy k-space data.

    The configured noise level ``sigma`` is expressed against
    unnormalized-DFT k-space amplitudes (the usual scanner convention,
    where the DC bin of a unit-magnitude image is of order H*W).  The
    internal representation uses the unitary DFT, so the per-bin noise
    standard deviation is sigma / sqrt(H*W).
    """
    phantom = build_phantom(cfg.phantom)
    coil_maps = make_coil_maps(cfg.coils, cfg.phantom.size, seed=cfg.coil_seed)
    try:
        mask = spiral_mask(cfg.sampling, cfg.phantom.size)
    except MaskFractionError as exc:
        raise ConfigError(
            f"sampling fraction {cfg.sampling.fraction} is unreachable with "
            f"{cfg.sampling.turns} spiral turns on a {cfg.phantom.size}-pixel "
            f"grid: {exc}") from exc
    npix = float(phantom.size)
    data = simulate_kspace(phantom, coil_maps, mask,
                           cfg.sampling.sigma / np.sqrt(npix),
                           cfg.sampling.noise_seed)
    return Dataset(
        mask=mask, data=data, sigma=cfg.sampling.sigma,
        noise_seed=cfg.sampling.noise_seed, coil_seed=cfg.coil_seed,
        fraction=float(mask.mean()),
        phantom=phantom, coil_maps=coil_maps,
    )


def mri_problem(dataset: Dataset, cfg: ExperimentConfig) -> MriProblem:
    """Assemble the reconstruction problem for a dataset.

    The configured fidelity weight ``lam`` follows the same
    unnormalized-DFT data scale as ``sigma`` (see :func:`simulate`);
    squared residuals pick up a factor H*W when re-expressed against
    the unitary transform, so the effective weight is lam * H * W.
    """
    npix = float(dataset.mask.size)
    try:
        lam = np.asarray(cfg.lam, dtype=float) * npix
        return MriProblem(
            mask=dataset.mask, data=dataset.data,
            lam=lam, alpha0=cfg.alpha0, alpha=cfg.alpha,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid problem: {exc}") from exc


def reconstruct(dataset: Dataset, cfg: ExperimentConfig):
    """Run the configured solver; returns (record, report)."""
    problem = separable_problem(mri_problem(dataset, cfg))
    if cfg.algorithm == "admm":
        state, report = admm.run(problem.as_admm_problem(), cfg.solver)
        final_u = state.u
    else:
        final_u, _mu, report = PdhgmSolver(problem, cfg.solver).run()
    record = ReconstructionRecord(
        u=final_u[0],
        coil_maps=[final_u[j] for j in range(1, dataset.n_coils + 1)],
        algorithm=cfg.algorithm,
        iterations=report.iterations,
        final_residual=report.final_residual,
        wall_ms=report.wall_ms,
    )
    return record, report


def evaluate(record: ReconstructionRecord, dataset: Dataset) -> dict:
    """PSNR of the reconstruction and the zero-filling baseline."""
    if dataset.phantom is None:
        raise ConfigError("dataset has no ground truth; cannot evaluate")
    if record.u.shape != dataset.shape:
        raise ConfigError(f"reconstruction grid {record.u.shape} differs "
                          f"from the dataset's {dataset.shape}")
    baseline = zero_fill_baseline(dataset.data)
    return {
        "psnr_recon_db": psnr(record.u, dataset.phantom),
        "psnr_zerofill_db": psnr(baseline, dataset.phantom),
        "final_residual": float(record.final_residual),
        "iterations": int(record.iterations),
        "wall_ms": float(record.wall_ms),
    }


def run_equivalence(dataset: Dataset, cfg: ExperimentConfig,
                    iterations: int) -> float:
    """Max ADMM / dual-first deviation on this dataset's problem."""
    problem = separable_problem(mri_problem(dataset, cfg))
    return equivalence_check(problem, cfg.solver, iterations)


# --- file layout helpers used by the CLI ---

def dataset_path(out_dir) -> str:
    return os.path.join(out_dir, "dataset.pad")


def record_path(out_dir) -> str:
    return os.path.join(out_dir, "recon.pad")


def write_outputs(out_dir, record: ReconstructionRecord, report):
    record.save(record_path(out_dir))
    atomic_write(os.path.join(out_dir, "convergence.txt"),
                 [report.to_text().encode()])
    write_pgm(os.path.join(out_dir, "recon_u.pgm"), record.u)
    for j, c in enumerate(record.coil_maps):
        write_pgm(os.path.join(out_dir, f"recon_coil_{j}.pgm"), c)


def write_metrics(out_dir, values: dict) -> str:
    """Write ``<out_dir>/metrics.txt``; returns its text."""
    text = format_metrics(values)
    atomic_write(os.path.join(out_dir, "metrics.txt"), [text.encode()])
    return text
