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
u-sequences by one the iterates coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .admm import (Problem, Solver, SolverConfig, SolverDivergence,
                   SolverState, run as run_admm)
from .blocks import BlockVector
from .constraint import LinearMap, NonlinearConstraint
# unused here, but benchmarks/spans.py patches and checks this attribute
from .opnorm import estimate_opnorm  # noqa: F401
from .prox import ProxOp, conjugate_apply


class SeparableOperator:
    """Nonlinear map G(u) with a matrix-free Jacobian."""

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
        return self.g.evaluate(u) - v

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
        b = state.mu + cfg.delta * p.g.evaluate(state.u)
        mu_new = conjugate_apply(p.prox_j, b, cfg.delta)
        mu_bar = 2.0 * mu_new - state.mu

        jac = p.g.jac(state.u)
        tau1 = self.step_size(jac, "a")
        u_new = p.prox_h.apply(state.u - tau1 * jac.adjoint(mu_bar), tau1)

        if not (u_new.isfinite() and mu_new.isfinite()):
            raise SolverDivergence(
                f"non-finite iterate at iteration {state.k + 1}", state
            )
        return SolverState(
            u=u_new, v=None, mu=mu_new, mu_bar=mu_bar, k=state.k + 1,
            tau1=tau1, tau2=1.0 / cfg.delta,
            residual=(mu_new - state.mu).norm() / cfg.delta,
        )

    def run(self, callbacks: Optional[list] = None):
        """Iterate from the problem's start; callbacks receive (u, mu)."""
        p = self.problem
        state, report = self._drive(
            SolverState(u=p.u0.copy(), v=None, mu=p.mu0.copy(), mu_bar=p.mu0),
            [lambda st, cb=cb: cb(st.u, st.mu) for cb in callbacks or ()],
        )
        return state.u, state.mu, report


def equivalence_check(problem: SeparableProblem, cfg: SolverConfig,
                      iterations: int) -> float:
    """Max deviation between the ADMM and dual-first u-sequences.

    Runs the full ADMM (tau2 = 1/delta, as B = -I) on F(u, v) = G(u) - v, then
    the dual-first iteration started from the ADMM's first u-iterate,
    and compares after the one-index shift induced by the reordering.
    Warm-started norm estimation is disabled so both solvers obtain
    bit-identical step sizes for identical base points.
    """
    admm_cfg = replace(cfg, warm_start_opnorm=False,
                       max_iterations=iterations + 1)
    u_hist = []
    run_admm(problem.as_admm_problem(), admm_cfg,
             callbacks=[lambda st: u_hist.append(st.u)])

    pd_problem = replace(problem, u0=u_hist[0])
    pd_cfg = replace(cfg, warm_start_opnorm=False, max_iterations=iterations)
    pd_hist = []
    PdhgmSolver(pd_problem, pd_cfg).run(
        callbacks=[lambda u, mu: pd_hist.append(u)]
    )

    deviation = 0.0
    for k, u_pd in enumerate(pd_hist):
        deviation = max(deviation, (u_pd - u_hist[k + 1]).norm())
    return deviation
