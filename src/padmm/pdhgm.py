"""Dual-first primal-dual method for separable constraints F(u, v) = G(u) - v.

With B = -I the ADMM's v-step uses tau2 = 1/delta; folding the v- and
mu-updates together through Moreau's identity eliminates v entirely and
leaves a primal-dual iteration whose extrapolation acts on the dual
variable:

    mu^{k+1}   = (I + delta dJ*)^{-1}(mu^k + delta G(u^k)),
    mubar^{k+1} = 2 mu^{k+1} - mu^k,
    u^{k+1}    = prox_H(u^k - tau1 JG(u^k)* mubar^{k+1}).

This module also provides the harness that checks the reordered
iteration against the ADMM solver: the reordered mu-update at step k
consumes u^k where the ADMM consumed u^{k+1}, so after shifting the
u-sequences by one the iterates coincide.  It walks the two streams
of iterates in lockstep, so it holds a few states at any length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .admm import (AdmmSolver, Problem, Solver, SolverConfig, SolverState,
                   descend, extrapolate)
from .blocks import BlockVector, detached
from .constraint import LinearMap, NonlinearConstraint
# unused here, but benchmarks/spans.py patches and checks this attribute
from .opnorm import estimate_opnorm  # noqa: F401
from .prox import ProxOp, conjugate_apply


class SeparableOperator:
    """Nonlinear map G(u) with a matrix-free Jacobian.

    ``evaluate`` returns a vector the caller may overwrite: fresh arrays,
    or its argument itself, never an array the operator keeps.
    """

    def evaluate(self, u: BlockVector) -> BlockVector:
        raise NotImplementedError

    def jac(self, u: BlockVector) -> LinearMap:
        raise NotImplementedError


class SeparableConstraint(NonlinearConstraint):
    """F(u, v) = G(u) - v; the v-Jacobian is -I at every base point."""

    jac_v_is_neg_identity = True

    def __init__(self, g: SeparableOperator, target: BlockVector):
        super().__init__(target)
        self.g = g

    def evaluate(self, u, v):
        return self.partial(u)(v)

    def partial(self, u):
        gu = self.g.evaluate(u)
        return lambda v: gu - v

    def jac_u(self, u, v):
        return self.g.jac(u)

    def jac_v(self, u, v):
        shapes = self.target.shapes
        return LinearMap(
            apply=lambda h: -h,
            adjoint=lambda w: -w,
            domain_shapes=shapes,
            codomain_shapes=shapes,
        )


@dataclass
class SeparableProblem:
    g: SeparableOperator
    prox_h: ProxOp
    prox_j: ProxOp
    u0: BlockVector
    mu0: BlockVector

    def as_admm_problem(self) -> Problem:
        """The same problem for the ADMM, as G(u) - v = 0 from v = 0."""
        return Problem(
            constraint=SeparableConstraint(
                self.g, BlockVector.zeros_like(self.mu0)),
            prox_h=self.prox_h,
            prox_j=self.prox_j,
            u0=self.u0,
            v0=BlockVector.zeros_like(self.mu0),
            mu0=self.mu0,
        )


class PdhgmSolver(Solver):
    """The dual-first step; its state carries no v.

    Its residual ||mu^{k+1} - mu^k|| / delta is ||G(u^k) - v^{k+1}||,
    the constraint residual of the eliminated v, which is what the ADMM
    records; tau2 is the 1/delta that elimination assumes.
    """

    def __init__(self, problem: SeparableProblem, cfg: SolverConfig):
        super().__init__(cfg)
        self.problem = problem

    def step(self, state: SolverState) -> SolverState:
        p, cfg = self.problem, self.cfg
        delta = cfg.delta
        # b = mu + delta G(u^k), in G(u^k)'s blocks
        b = detached(p.g.evaluate(state.u), state.u)
        for bi, mi in zip(b.blocks, state.mu.blocks):
            np.multiply(delta, bi, out=bi)
            np.add(mi, bi, out=bi)
        mu_new = conjugate_apply(p.prox_j, b, delta)
        mu_bar = extrapolate(mu_new, state.mu)
        # b is spent: mu^{k+1} - mu^k goes into its blocks
        for bi, ni, mi in zip(b.blocks, mu_new.blocks, state.mu.blocks):
            np.subtract(ni, mi, out=bi)
        residual = b.norm() / delta
        del b, bi

        jac = p.g.jac(state.u)
        tau1, eig_a = self.step_size(jac, state.eig_a)
        u_new = descend(jac, tau1, state.u, mu_bar, p.prox_h)
        return SolverState(
            u=u_new, v=None, mu=mu_new, mu_bar=mu_bar, k=state.k + 1,
            tau1=tau1, tau2=1.0 / delta, residual=residual, eig_a=eig_a,
        )

    def start(self) -> SolverState:
        """The problem's start; mu_bar, which no step reads, is mu0 itself."""
        p = self.problem
        return SolverState(u=p.u0.copy(), v=None, mu=p.mu0.copy(), mu_bar=p.mu0)

    def run(self, callbacks: Optional[list] = None):
        """Iterate from ``start``; callbacks receive (u, mu)."""
        state, report = self._drive(self.start(), [
            lambda st, cb=cb: cb(st.u, st.mu) for cb in callbacks or ()])
        return state.u, state.mu, report


def equivalence_check(problem: SeparableProblem, cfg: SolverConfig,
                      iterations: int) -> float:
    """Max deviation between the ADMM and dual-first u-sequences.

    The dual-first stream starts from the u and eigenvector of the first
    ADMM iterate (tau2 = 1/delta, as B = -I), then both are walked in
    lockstep: iterate k meets ADMM iterate k + 1, the shift the
    reordering induces.  Both warm-start norm estimates, as a run does.
    Either stream's SolverAborted propagates.
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    ap = problem.as_admm_problem()
    admm = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j,
                      replace(cfg, max_iterations=iterations + 1))
    admm_states = admm.iterates(admm.start(ap.u0, ap.v0, ap.mu0))
    first = next(admm_states)
    pd = PdhgmSolver(replace(problem, u0=first.u),
                     replace(cfg, max_iterations=iterations))
    pd_states = pd.iterates(replace(pd.start(), eig_a=first.eig_a))
    del first  # its v and mu would otherwise live through the walk
    return max(((pd_st.u - admm_st.u).norm() for admm_st, pd_st in
                zip(admm_states, pd_states)), default=0.0)
