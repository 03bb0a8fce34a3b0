"""Preconditioned ADMM with a linearized nonlinear operator constraint.

One iteration, in order:

1. freeze the u-Jacobian A at (u^k, v^k) and set tau1 = theta / (delta ||A||^2),
2. u^{k+1} = prox_H(u^k - tau1 A* mubar^k),
3. freeze the v-Jacobian B at (u^{k+1}, v^k) and set tau2 analogously;
   when B = -I, tau2 = 1/delta instead (the exact v-minimization,
   Q2 = 0), and a configured override takes precedence over both,
4. v^{k+1} = prox_J(v^k - tau2 B* (mu^k + delta (F(u^{k+1}, v^k) - c))),
5. mu^{k+1} = mu^k + delta (F(u^{k+1}, v^{k+1}) - c),
6. mubar^{k+1} = 2 mu^{k+1} - mu^k.

The quadratic surrogates that make the subproblems explicit are never
formed as matrices; their effect is exactly the proximal form above, with
positive definiteness guaranteed by tau * delta * ||op||^2 = theta < 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockVector
from .constraint import LinearMap, NonlinearConstraint
from .opnorm import estimate_opnorm, fresh_start
from .prox import ProxOp


class SolverDivergence(RuntimeError):
    """Raised when an iterate stops being finite; carries the last good state."""

    def __init__(self, message, last_state):
        super().__init__(message)
        self.last_state = last_state


@dataclass
class SolverConfig:
    delta: float = 1.0
    theta: float = 0.99
    max_iterations: int = 100
    power_iter_tol: float = 1e-9
    power_iter_max: int = 500
    tau2_override: Optional[float] = None
    warm_start_opnorm: bool = True
    seed: int = 0

    def validate(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if not (math.isfinite(self.power_iter_tol) and self.power_iter_tol >= 0):
            raise ValueError("power_iter_tol must be nonnegative and finite")
        if self.power_iter_max < 1:
            raise ValueError("power_iter_max must be at least 1")
        return self


@dataclass
class SolverState:
    """Iterate after ``k`` steps; ``residual`` is ||F(u, v) - c||.

    The dual-first step eliminates v, so its states carry ``v = None``.
    """

    u: BlockVector
    v: Optional[BlockVector]
    mu: BlockVector
    mu_bar: BlockVector
    k: int = 0
    tau1: Optional[float] = None
    tau2: Optional[float] = None
    residual: float = float("nan")


@dataclass
class ConvergenceReport:
    iterations: int
    residuals: list
    tau1s: list
    tau2s: list
    wall_ms: float
    aborted: bool = False
    abort_message: str = ""

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")

    def to_text(self) -> str:
        lines = [
            f"iterations: {self.iterations}",
            f"final_residual: {self.final_residual!r}",
            f"aborted: {int(self.aborted)}",
            f"wall_ms: {self.wall_ms:.3f}",
            "residuals:",
        ]
        lines += [f"  {r!r}" for r in self.residuals]
        return "\n".join(lines) + "\n"


@dataclass
class Problem:
    """A complete solver input: constraint, resolvents and initial point."""

    constraint: NonlinearConstraint
    prox_h: ProxOp
    prox_j: ProxOp
    u0: BlockVector
    v0: BlockVector
    mu0: BlockVector


class Solver:
    """Driver shared by both step rules: step sizes, run loop and report.

    Subclasses implement ``step``, a map ``SolverState -> SolverState``
    that raises :class:`SolverDivergence` on a non-finite iterate.
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg.validate()
        self._warm = {}

    def step_size(self, linmap: LinearMap, key: str) -> float:
        """theta / (delta ||linmap||^2), the norm warm-started per ``key``."""
        cfg = self.cfg
        start = self._warm.get(key)
        if start is None or not cfg.warm_start_opnorm:
            start = fresh_start(BlockVector.zeros(linmap.domain_shapes), cfg.seed)
        est = estimate_opnorm(linmap.apply, linmap.adjoint, start,
                              tol=cfg.power_iter_tol, max_iter=cfg.power_iter_max)
        self._warm[key] = est.eigvec
        return cfg.theta / (cfg.delta * max(est.value ** 2, 1e-300))

    def step(self, state: SolverState) -> SolverState:
        raise NotImplementedError

    def _drive(self, state: SolverState, callbacks):
        # ``state`` is the only reference this frame keeps to the start
        # state, so its blocks are freed once the first step returns
        residuals, tau1s, tau2s = [], [], []
        aborted, abort_message = False, ""
        t0 = time.perf_counter()
        # a diverging iterate overflows before it turns non-finite; the
        # SolverDivergence abort reports that once, so numpy stays quiet
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.cfg.max_iterations):
                try:
                    state = self.step(state)
                except SolverDivergence as exc:
                    state = exc.last_state
                    aborted, abort_message = True, str(exc)
                    break
                residuals.append(state.residual)
                tau1s.append(state.tau1)
                tau2s.append(state.tau2)
                for cb in callbacks or ():
                    cb(state)
        report = ConvergenceReport(
            iterations=state.k, residuals=residuals, tau1s=tau1s, tau2s=tau2s,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            aborted=aborted, abort_message=abort_message,
        )
        return state, report


class AdmmSolver(Solver):
    """The preconditioned ADMM step on a general constraint F(u, v) = c."""

    def __init__(self, constraint: NonlinearConstraint, prox_h: ProxOp,
                 prox_j: ProxOp, cfg: SolverConfig):
        super().__init__(cfg)
        self.constraint = constraint
        self.prox_h = prox_h
        self.prox_j = prox_j

    def step(self, state: SolverState) -> SolverState:
        cfg = self.cfg
        F = self.constraint
        c = F.target

        a = F.jac_u(state.u, state.v)
        tau1 = self.step_size(a, "a")
        u_new = self.prox_h.apply(state.u - tau1 * a.adjoint(state.mu_bar), tau1)

        b = F.jac_v(u_new, state.v)
        if cfg.tau2_override is not None:
            tau2 = cfg.tau2_override
        elif getattr(F, "jac_v_is_neg_identity", False):
            tau2 = 1.0 / cfg.delta
        else:
            tau2 = self.step_size(b, "b")

        half_res = F.evaluate(u_new, state.v) - c
        v_new = self.prox_j.apply(
            state.v - tau2 * b.adjoint(state.mu + cfg.delta * half_res), tau2
        )

        full_res = F.evaluate(u_new, v_new) - c
        mu_new = state.mu + cfg.delta * full_res
        mu_bar_new = 2.0 * mu_new - state.mu

        if not (u_new.isfinite() and v_new.isfinite() and mu_new.isfinite()):
            raise SolverDivergence(
                f"non-finite iterate at iteration {state.k + 1}", state
            )

        return SolverState(
            u=u_new, v=v_new, mu=mu_new, mu_bar=mu_bar_new,
            k=state.k + 1, tau1=tau1, tau2=tau2, residual=full_res.norm(),
        )

    def run(self, u0: BlockVector, v0: BlockVector, mu0: BlockVector,
            callbacks: Optional[list] = None):
        return self._drive(SolverState(u=u0.copy(), v=v0.copy(), mu=mu0.copy(),
                                       mu_bar=mu0.copy()), callbacks)


def run(problem: Problem, cfg: SolverConfig,
        callbacks: Optional[list] = None):
    """Run the preconditioned ADMM on a fully specified problem."""
    solver = AdmmSolver(problem.constraint, problem.prox_h, problem.prox_j, cfg)
    return solver.run(problem.u0, problem.v0, problem.mu0, callbacks=callbacks)
