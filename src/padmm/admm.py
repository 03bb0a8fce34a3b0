"""Preconditioned ADMM with a linearized nonlinear operator constraint.

One iteration, in order:

1. freeze the u-Jacobian A at (u^k, v^k) and set tau1 = theta / (delta ||A||^2),
2. u^{k+1} = prox_H(u^k - tau1 A* mubar^k),
3. freeze the v-Jacobian B at (u^{k+1}, v^k) and set
   tau2 = theta / (delta ||B||^2), or tau2 = 1/delta on B = -I of an
   :class:`padmm.constraint.ExplicitV`: Q2 = 0, the exact v-minimization,
4. v^{k+1} = prox_J(v^k - tau2 B* (mu^k + delta F(u^{k+1}, v^k))),
5. mu^{k+1} = mu^k + delta F(u^{k+1}, v^{k+1}),
6. mubar^{k+1} = 2 mu^{k+1} - mu^k, which is never stored: the next
   step's step 2 reads it from the state's ``mu`` and ``mu_prev``
   (mu^k), block by block inside A* when A has ``adjoint_extrapolated``.

A constraint F(u, v) = c enters as F - c.  Steps 2 and 4 are one pass,
:func:`descend`, with B in A's place; the multiplier of steps 4 and 5 is
:func:`dual_update`.

The solver takes a separable F(u, v) = G(u) - v = 0 as G itself, a
:class:`SeparableOperator`.  There B = -I, and tau2 = 1/delta cancels v
from step 4; by Moreau's identity steps 3-5 are the dual-first mu-update
:func:`padmm.pdhgm.ascend` at G(u^{k+1}).  No step reads v, so the state
carries ``v = None``.  Handed ``ExplicitV(G)``, it takes steps 3-5 as
written, v kept, which is how :func:`padmm.pdhgm.equivalence_check`
tests that reordering.

The quadratic surrogates that make the subproblems explicit are never
formed as matrices; their effect is exactly the proximal form above, with
positive definiteness guaranteed by tau * delta * ||op||^2 = theta < 1.

Each update is a pass over the blocks that writes into a vector the step
has just received fresh (an adjoint's output, a value of F, a resolvent's
output), with the operations and their order of the formulas above.  So
the step holds few v-layout temporaries, and no buffer lives on from one
step to the next.  Every state it returns has arrays of its own, except
``mu_prev``: that is its predecessor's ``mu`` itself, which nothing
writes.  The step consumes its input's carry, ``mu_prev`` and the warm
starts ``eig_a``/``eig_b``: it sets each to None once it has read it,
so neither mu^{k-1} nor an old eigenvector outlives its one use.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockVector, detached, extrapolated_block
from .constraint import (ExplicitV, LinearMap, NonlinearConstraint,
                         SeparableOperator)
from .opnorm import estimate_opnorm
from .prox import ProxOp


@dataclass(frozen=True)
class SolverConfig:
    """Settings of both solvers, checked here alone.  ``tau2_override``
    steers no step: it may only be None or 1/delta, the tau2 every
    B = -I step takes; a general constraint's v-step takes its own."""

    delta: float = 1.0
    theta: float = 0.99
    max_iterations: int = 1500
    power_iter_tol: float = 1e-7
    power_iter_max: int = 100
    tau2_override: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive and finite")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if operator.index(self.max_iterations) < 0:
            raise ValueError("max_iterations must be nonnegative")
        if not (math.isfinite(self.power_iter_tol) and self.power_iter_tol >= 0):
            raise ValueError("power_iter_tol must be nonnegative and finite")
        if operator.index(self.power_iter_max) < 1:
            raise ValueError("power_iter_max must be at least 1")
        if operator.index(self.seed) < 0:
            raise ValueError("seed must be nonnegative")
        if self.tau2_override not in (None, 1.0 / self.delta):
            raise ValueError("tau2_override may only be None or 1/delta, "
                             f"not {self.tau2_override!r}")


@dataclass
class SolverState:
    """Iterate after ``k`` steps; ``residual`` is ||F(u, v)||.

    The dual-first step and the ADMM step on a separable constraint
    eliminate v, so their states carry ``v = None``.
    ``mu_prev`` is mu^{k-1}, the predecessor's own ``mu`` arrays, never
    written.  An ADMM step's u-step takes A* mubar, mubar = 2 mu - mu_prev,
    from it and ``mu``; mubar is no field, and :func:`descend` never
    stores it on a map with ``adjoint_extrapolated``.  ``mu_prev`` is
    ``None`` at a start, where mubar is mu itself, and in every
    dual-first state, whose step extrapolates its new mu against ``mu``.
    ``eig_a``/``eig_b`` warm-start the next power iteration on the u-/v-
    Jacobian, with its last eigenvector; ``None`` starts it from the seed.
    These three are the carry, an input of the next step only: the step
    that takes the state sets each to ``None`` once read.  So a state is
    stepped once; a second step takes mubar = mu and a seeded start.
    """

    u: BlockVector
    v: Optional[BlockVector]
    mu: BlockVector
    mu_prev: Optional[BlockVector]
    k: int = 0
    tau1: Optional[float] = None
    tau2: Optional[float] = None
    residual: float = float("nan")
    eig_a: Optional[BlockVector] = None
    eig_b: Optional[BlockVector] = None


@dataclass
class ConvergenceReport:
    iterations: int
    residuals: list
    wall_ms: float
    abort_message: str = ""

    @property
    def aborted(self) -> bool:
        return bool(self.abort_message)

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


class SolverAborted(RuntimeError):
    """A run stopped on a non-finite iterate; the message says where."""


@dataclass
class Problem:
    """A complete solver input: constraint, resolvents and initial point.

    The start vectors are inputs only: ``AdmmSolver.start`` copies them,
    and no run writes into them.  They may share arrays between blocks
    and be read-only (:func:`padmm.mri.separable_problem` builds them
    so), so an in-place write to them may raise ``ValueError``; copy
    first.
    """

    constraint: NonlinearConstraint | SeparableOperator
    prox_h: ProxOp
    prox_j: ProxOp
    u0: BlockVector
    v0: Optional[BlockVector]
    mu0: BlockVector


class Solver:
    """Driver shared by both step rules: step sizes, iterates and report.

    Subclasses implement ``step``, a map ``SolverState -> SolverState``.
    Divergence is decided in ``iterates`` alone.
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg

    def step_size(self, linmap: LinearMap, start: Optional[BlockVector]):
        """(theta / (delta ||linmap||^2), eigvec), estimated from ``start``."""
        cfg = self.cfg
        if start is None:
            rng = np.random.default_rng(cfg.seed)
            start = BlockVector([
                rng.standard_normal(s) + 1j * rng.standard_normal(s)
                for s in linmap.domain_shapes])
        est = estimate_opnorm(linmap, start, tol=cfg.power_iter_tol,
                              max_iter=cfg.power_iter_max)
        return cfg.theta / (cfg.delta * max(est.value ** 2, 1e-300)), est.eigvec

    def step(self, state: SolverState) -> SolverState:
        raise NotImplementedError

    def iterates(self, state: SolverState):
        """Each accepted state after ``state``, up to ``max_iterations``;
        a non-finite u, v, mu or residual raises SolverAborted.  Pass the
        start unnamed: this frame drops it once the first step returns.
        The next step consumes a yielded state's carry, so a kept state
        keeps its u, v, mu and scalars; its carry reads None."""
        for _ in range(self.cfg.max_iterations):
            # a diverging iterate overflows before it turns non-finite; the
            # abort reports that once, so numpy is quiet (never at a yield)
            with np.errstate(over="ignore", invalid="ignore"):
                state = self.step(state)
            if not (state.u.isfinite() and (state.v is None or state.v.isfinite())
                    and state.mu.isfinite() and math.isfinite(state.residual)):
                raise SolverAborted(f"non-finite iterate at iteration {state.k}")
            yield state

    def _drive(self, state: SolverState, callbacks):
        residuals, abort_message = [], ""
        t0 = time.perf_counter()
        try:
            for state in self.iterates(state):
                residuals.append(state.residual)
                for cb in callbacks or ():
                    cb(state)
        except SolverAborted as exc:
            abort_message = str(exc)
        return state, ConvergenceReport(
            iterations=state.k, residuals=residuals, abort_message=abort_message,
            wall_ms=(time.perf_counter() - t0) * 1e3)


class AdmmSolver(Solver):
    """The preconditioned ADMM step on F(u, v) = 0, or on G(u) - v = 0."""

    def __init__(self, constraint: NonlinearConstraint | SeparableOperator,
                 prox_h: ProxOp, prox_j: ProxOp, cfg: SolverConfig):
        super().__init__(cfg)
        self.constraint = constraint
        self.prox_h = prox_h
        self.prox_j = prox_j

    def step(self, state: SolverState) -> SolverState:
        F = self.constraint
        delta = self.cfg.delta

        separable = isinstance(F, SeparableOperator)
        a = F.jac(state.u) if separable else F.jac_u(state.u, state.v)
        tau1, eig_a = self.step_size(a, state.eig_a)
        state.eig_a = None
        u_new = descend(a, tau1, state.u, state.mu, state.mu_prev, self.prox_h)
        state.mu_prev = None
        del a  # frees the Jacobian's scratch before the v-step's temporaries

        if separable:
            from .pdhgm import ascend  # pdhgm imports this module
            mu, residual = ascend(F, u_new, state.mu, self.prox_j, delta)
            return SolverState(
                u=u_new, v=None, mu=mu, mu_prev=state.mu, k=state.k + 1,
                tau1=tau1, tau2=1.0 / delta, residual=residual, eig_a=eig_a)

        b = F.jac_v(u_new, state.v)
        if isinstance(F, ExplicitV):  # B = -I: Q2 = 0, no norm to estimate
            tau2, eig_b = 1.0 / delta, None
        else:
            tau2, eig_b = self.step_size(b, state.eig_b)
            state.eig_b = None
        v_new = descend(b, tau2, state.v, dual_update(
            detached(F.evaluate(u_new, state.v), u_new, state.v),
            state.mu, delta), None, self.prox_j)
        r = detached(F.evaluate(u_new, v_new), u_new, v_new)
        residual = r.norm()
        mu = dual_update(r, state.mu, delta)
        return SolverState(
            u=u_new, v=v_new, mu=mu, mu_prev=state.mu, k=state.k + 1,
            tau1=tau1, tau2=tau2, residual=residual, eig_a=eig_a, eig_b=eig_b)

    @staticmethod
    def start(u0: BlockVector, v0: Optional[BlockVector],
              mu0: BlockVector) -> SolverState:
        """The state before the first step, in arrays of its own; with no
        mu_prev, the first step's mubar is mu0."""
        return SolverState(u0.copy(), None if v0 is None else v0.copy(),
                           mu0.copy(), None)

    def run(self, u0: BlockVector, v0: Optional[BlockVector],
            mu0: BlockVector, callbacks: Optional[list] = None):
        return self._drive(self.start(u0, v0, mu0), callbacks)


def descend(jac: LinearMap, tau: float, u: BlockVector, mu: BlockVector,
            mu_prev: Optional[BlockVector], prox: ProxOp) -> BlockVector:
    """The u-step prox(u - tau jac* mubar, tau), its argument written
    into the adjoint's output.  mubar is 2 mu - mu_prev, or ``mu`` itself
    when ``mu_prev`` is None.  A map with ``adjoint_extrapolated`` forms
    mubar block by block inside its adjoint; for any other map
    :func:`extrapolate` stores it for the one adjoint call."""
    if mu_prev is None:
        x = jac.adjoint(mu)
    elif jac.adjoint_extrapolated is not None:
        x = jac.adjoint_extrapolated(mu, mu_prev)
    else:
        x = jac.adjoint(extrapolate(mu, mu_prev))
    x = detached(x, mu)
    del mu  # a temporary handed in dies before the resolvent runs
    for xi, ui in zip(x.blocks, u.blocks):
        np.multiply(tau, xi, out=xi)
        np.subtract(ui, xi, out=xi)
    return prox.apply(x, tau)


def dual_update(x: BlockVector, mu: BlockVector, delta: float) -> BlockVector:
    """mu + delta x, written into ``x`` and returned."""
    for xi, mi in zip(x.blocks, mu.blocks):
        np.multiply(delta, xi, out=xi)
        np.add(mi, xi, out=xi)
    return x


def extrapolate(mu_new: BlockVector, mu: BlockVector) -> BlockVector:
    """mubar = 2 mu_new - mu, into fresh arrays."""
    return BlockVector([extrapolated_block(ni, mi)
                        for ni, mi in zip(mu_new.blocks, mu.blocks)])


def run(problem: Problem, cfg: SolverConfig):
    """Run the preconditioned ADMM on a fully specified problem."""
    solver = AdmmSolver(problem.constraint, problem.prox_h, problem.prox_j, cfg)
    return solver.run(problem.u0, problem.v0, problem.mu0)
