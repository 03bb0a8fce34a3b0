"""Dual-first primal-dual method for separable constraints F(u, v) = G(u) - v.

With B = -I the ADMM's v-step uses tau2 = 1/delta; folding the v- and
mu-updates together through Moreau's identity eliminates v entirely and
leaves a primal-dual iteration whose extrapolation acts on the dual
variable:

    mu^{k+1}   = (I + delta dJ*)^{-1}(mu^k + delta G(u^k)),
    mubar^{k+1} = 2 mu^{k+1} - mu^k,
    u^{k+1}    = prox_H(u^k - tau1 JG(u^k)* mubar^{k+1}).

mubar^{k+1} is never stored: :func:`descend` takes mu^{k+1} and mu^k,
and a Jacobian with ``adjoint_extrapolated`` (the MRI one) forms it
block by block inside its adjoint.

The ADMM, handed G itself, steps :func:`descend`, then this mu-update,
:func:`ascend`, at u^{k+1}: the two steps in the other order, the same
bits after shifting the u-sequences by one.  The paper's connection
result is that this reordering is the ADMM with v kept, B = -I and
tau2 = 1/delta.  :func:`equivalence_check` tests it: it runs the ADMM
on :class:`padmm.constraint.ExplicitV`, which never calls :func:`ascend`,
and walks both streams of iterates in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .admm import (AdmmSolver, Problem, Solver, SolverConfig, SolverState,
                   descend, dual_update)
from .blocks import BlockVector, detached, sum_squares
from .constraint import ExplicitV, SeparableOperator
# unused here, but benchmarks/spans.py patches and checks this attribute
from .opnorm import estimate_opnorm  # noqa: F401
from .prox import ProxOp, conjugate_apply


def ascend(g: SeparableOperator, u: BlockVector, mu: BlockVector,
           prox_j: ProxOp, delta: float):
    """The mu-half at u: (mu+, ||mu+ - mu|| / delta), where mu+ =
    (I + delta dJ*)^{-1}(b) and b = mu + delta G(u); b, then mu+, are
    written into G(u)'s blocks.  The norm sums the blocks' squares in
    order, as ``BlockVector.norm`` does, one block of mu+ - mu at a time."""
    mu_new = conjugate_apply(
        prox_j, dual_update(detached(g.evaluate(u), u), mu, delta), delta)
    total = 0.0
    for ni, mi in zip(mu_new.blocks, mu.blocks):
        total += sum_squares(np.subtract(ni, mi))
    return mu_new, float(np.sqrt(total)) / delta


@dataclass
class SeparableProblem:
    """G, the resolvents and the start (u0, mu0).  As in
    :class:`padmm.admm.Problem`, the start vectors are inputs only, which
    ``PdhgmSolver.start`` copies; they may be shared and read-only, so
    an in-place write to them may raise ``ValueError``."""

    g: SeparableOperator
    prox_h: ProxOp
    prox_j: ProxOp
    u0: BlockVector
    mu0: BlockVector

    def as_admm_problem(self) -> Problem:
        """The same problem for the ADMM: G itself, and no v to start."""
        return Problem(constraint=self.g,
                       prox_h=self.prox_h, prox_j=self.prox_j,
                       u0=self.u0, v0=None, mu0=self.mu0)


class PdhgmSolver(Solver):
    """The dual-first step; its state carries no v.  Its residual, as the
    ADMM's, is ||mu^{k+1} - mu^k|| / delta = ||G(u^k) - v^{k+1}||, for the
    eliminated v; tau2 is the 1/delta that elimination assumes.  The
    u-step hands ``descend`` mu+ and the state's mu, so mubar = 2 mu+ - mu
    lives only block by block inside a fused adjoint."""

    def __init__(self, problem: SeparableProblem, cfg: SolverConfig):
        super().__init__(cfg)
        self.problem = problem

    def step(self, state: SolverState) -> SolverState:
        p, delta = self.problem, self.cfg.delta
        mu_new, residual = ascend(p.g, state.u, state.mu, p.prox_j, delta)
        jac = p.g.jac(state.u)
        tau1, eig_a = self.step_size(jac, state.eig_a)
        u_new = descend(jac, tau1, state.u, mu_new, state.mu, p.prox_h)
        return SolverState(
            u=u_new, v=None, mu=mu_new, mu_prev=None, k=state.k + 1,
            tau1=tau1, tau2=1.0 / delta, residual=residual, eig_a=eig_a,
        )

    def start(self) -> SolverState:
        """The problem's start, in arrays of its own; as every dual-first
        state it has no mu_prev, because the step extrapolates mu itself."""
        p = self.problem
        return SolverState(u=p.u0.copy(), v=None, mu=p.mu0.copy(), mu_prev=None)

    def run(self, callbacks: Optional[list] = None):
        """Iterate from ``start``; callbacks receive (u, mu)."""
        state, report = self._drive(self.start(), [
            lambda st, cb=cb: cb(st.u, st.mu) for cb in callbacks or ()])
        return state.u, state.mu, report


def equivalence_check(problem: SeparableProblem, cfg: SolverConfig,
                      iterations: int) -> float:
    """Max relative deviation between the ADMM and dual-first u-sequences.

    The ADMM steps on ``ExplicitV(problem.g)`` from v0 = 0, with
    tau2 = 1/delta on its B = -I.  The dual-first stream starts from the
    u and eigenvector of the first ADMM iterate, then both are walked in
    lockstep: iterate k meets ADMM iterate k + 1, the shift the
    reordering induces, and the deviation is relative to the ADMM's u.
    Both warm-start norm estimates, as a run does.  Either stream's
    SolverAborted propagates.
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    admm = AdmmSolver(ExplicitV(problem.g), problem.prox_h, problem.prox_j,
                      replace(cfg, max_iterations=iterations + 1))
    admm_states = admm.iterates(admm.start(
        problem.u0, BlockVector.zeros(problem.mu0.shapes), problem.mu0))
    first = next(admm_states)
    pd = PdhgmSolver(replace(problem, u0=first.u),
                     replace(cfg, max_iterations=iterations))
    pd_states = pd.iterates(replace(pd.start(), eig_a=first.eig_a))
    del first  # its v, mu and mu_prev would otherwise live through the walk
    return max(((pd_st.u - admm_st.u).norm() / max(admm_st.u.norm(), 1e-300)
                for admm_st, pd_st in zip(admm_states, pd_states)),
               default=0.0)
