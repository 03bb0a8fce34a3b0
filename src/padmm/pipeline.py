"""Experiment orchestration: configs, simulate / reconstruct / evaluate."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import admm
from .admm import SolverConfig
from .dataset import Dataset, ReconstructionRecord
from .metrics import psnr, zero_fill_baseline
from .mri import MriProblem, coil_weights, separable_problem
from .pdhgm import PdhgmSolver
from .phantom import (MaskFractionError, PhantomSpec, SamplingSpec,
                      build_phantom, make_coil_maps, simulate_kspace,
                      spiral_mask)

ALGORITHMS = ("admm", "pdhgm")


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit status 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    phantom: PhantomSpec = field(default_factory=PhantomSpec)
    coils: int = 8
    coil_seed: int = 1
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    solver: SolverConfig = field(default_factory=SolverConfig)
    algorithm: str = "admm"
    lam: object = 0.0621      # a scalar or one value per coil
    alpha0: float = 0.062
    alpha: object = 0.9317    # a scalar or one value per coil
    output: str = "out"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if operator.index(self.coils) < 1:
            raise ValueError("coil count must be at least 1")
        if operator.index(self.coil_seed) < 0:
            raise ValueError("seeds must be nonnegative")
        coil_weights(self.lam, self.alpha0, self.alpha, self.coils)


SECTIONS = ("phantom", "coils", "sampling", "solver", "weights")


def _integer(value):
    """A YAML integer, or a float of integral value (``int`` itself
    rejects ``.inf`` and ``.nan``)."""
    if isinstance(value, float) and int(value) == value:
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _real(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _reals(value):
    """A number, or a list of numbers (one per coil)."""
    return [_real(v) for v in value] if isinstance(value, list) else _real(value)


def _string(value):
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from nested key/value data.

    Only the keys the data set are converted and passed on, so every
    default is the dataclasses' own.  Each key is popped as it is read,
    and a key left over is unknown and rejected, not silently ignored.
    """
    raw = dict(raw)
    sections = {name: raw.pop(name, {}) for name in SECTIONS}
    if not all(isinstance(section, dict) for section in sections.values()):
        raise ConfigError(f"config sections {SECTIONS} must be mappings")
    sections = {"": raw, **{k: dict(v) for k, v in sections.items()}}

    def take(where, convert, name=None):
        # {name: converted value} if the data set the key ``where``, else {}
        section, _, key = where.rpartition(".")
        if key not in sections[section]:
            return {}
        try:
            return {name or key: convert(sections[section].pop(key))}
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"malformed configuration: {exc} ({where})") from exc

    cfg = ExperimentConfig(
        phantom=PhantomSpec(**take("phantom.size", _integer)),
        **take("coils.count", _integer, "coils"),
        **take("coils.seed", _integer, "coil_seed"),
        sampling=SamplingSpec(
            **take("sampling.fraction", _real), **take("sampling.turns", _real),
            **take("sampling.sigma", _real),
            **take("sampling.seed", _integer, "noise_seed")),
        solver=SolverConfig(
            **take("solver.delta", _real), **take("solver.theta", _real),
            **take("solver.iterations", _integer, "max_iterations"),
            **take("solver.power_iter_tol", _real),
            **take("solver.power_iter_max", _integer),
            **take("solver.seed", _integer)),
        **take("solver.algorithm", _string),
        **take("weights.lam", _reals), **take("weights.alpha0", _real),
        **take("weights.alpha", _reals), **take("output", _string),
    )
    unknown = [f"{name}.{key}" if name else str(key)
               for name, section in sections.items() for key in section]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read a YAML config file; an unreadable path raises ``OSError``."""
    with open(path, "rb") as fh:  # bytes, so bad encodings are YAML errors
        try:
            raw = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            detail = " ".join(str(exc).split())  # one line, marks included
            raise ConfigError(f"cannot read config {path}: {detail}") from exc
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
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        data = simulate_kspace(phantom, coil_maps, mask,
                               cfg.sampling.sigma / np.sqrt(npix),
                               cfg.sampling.noise_seed)
    if not all(np.isfinite(f).all() for f in data):
        raise ConfigError(f"sampling.sigma {cfg.sampling.sigma!r} overflows")
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
    with np.errstate(over="ignore"):  # reported below
        lam = np.asarray(cfg.lam, dtype=float) * float(dataset.mask.size)
    if not np.isfinite(lam).all():
        raise ConfigError(f"weights.lam {cfg.lam!r} overflows when scaled "
                          f"to the {dataset.shape[0]}x{dataset.shape[1]} grid")
    try:
        return MriProblem(
            mask=dataset.mask, data=dataset.data,
            lam=lam, alpha0=cfg.alpha0, alpha=cfg.alpha,
        )
    except ValueError as exc:
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
    """PSNRs and run figures: the fields of ``metrics.txt``, in order."""
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
