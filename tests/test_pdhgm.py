from dataclasses import replace

import numpy as np
import pytest

from padmm.blocks import BlockVector, random_like
from padmm.constraint import LinearMap
from padmm.mri import separable_problem
from padmm.pdhgm import (PdhgmSolver, SeparableConstraint, SeparableProblem,
                         equivalence_check)
from padmm.admm import AdmmSolver, SolverConfig, SolverState
from padmm.pipeline import config_from_dict, mri_problem, simulate
from padmm.prox import IdentityProx, conjugate_apply

from oracles import CallableOperator, QuadraticAnchorProx, dense_map


def identity_operator(shapes):
    ident = LinearMap(lambda h: h, lambda w: w, shapes, shapes)
    return CallableOperator(evaluate=lambda u: u, jac=lambda u: ident)


def matrix_operator(m):
    lm = dense_map(m)
    return (CallableOperator(evaluate=lm.apply, jac=lambda u: lm),
            lm.domain_shapes, lm.codomain_shapes)


def denoising_problem(shapes, f, weight=1.0):
    """min_u weight/2 ||u - f||^2 written as J(v) at v = G(u) = u."""
    return SeparableProblem(
        g=identity_operator(shapes),
        prox_h=IdentityProx(),
        prox_j=QuadraticAnchorProx(f, weight),
        u0=BlockVector.zeros(shapes),
        mu0=BlockVector.zeros(shapes),
    )


def nan_problem():
    """G(u) is NaN everywhere, so the first step of either solver diverges."""
    shapes = ((2,),)
    g = CallableOperator(
        evaluate=lambda u: BlockVector([np.full(2, np.nan, complex)]),
        jac=lambda u: LinearMap(lambda h: h, lambda w: w, shapes, shapes),
    )
    return SeparableProblem(
        g=g, prox_h=IdentityProx(), prox_j=IdentityProx(),
        u0=BlockVector.zeros(shapes), mu0=BlockVector.zeros(shapes),
    )


class TestConvergence:
    def test_identity_quadratic_limit(self):
        rng = np.random.default_rng(0)
        shapes = ((4, 4),)
        f = random_like(BlockVector.zeros(shapes), rng)
        problem = denoising_problem(shapes, f)
        u, mu, report = PdhgmSolver(
            problem, SolverConfig(max_iterations=400)
        ).run()
        assert (u - f).norm() < 1e-8 * f.norm()
        # at the optimum the multiplier carries the fidelity gradient
        assert mu.norm() < 1e-7
        assert not report.aborted

    def test_abort_on_nonfinite(self):
        problem = nan_problem()
        _, _, report = PdhgmSolver(problem, SolverConfig(max_iterations=5)).run()
        assert report.aborted
        assert report.iterations == 0


class TestStepStructure:
    def test_dual_step_uses_conjugate_resolvent(self):
        rng = np.random.default_rng(1)
        shapes = ((3, 3),)
        f = random_like(BlockVector.zeros(shapes), rng)
        problem = denoising_problem(shapes, f)
        cfg = SolverConfig(delta=1.8, max_iterations=1)
        solver = PdhgmSolver(problem, cfg)
        u = random_like(BlockVector.zeros(shapes), rng)
        mu = random_like(BlockVector.zeros(shapes), rng)
        new = solver.step(SolverState(u=u, v=None, mu=mu, mu_bar=mu))
        b = mu + cfg.delta * u
        expected = conjugate_apply(problem.prox_j, b, cfg.delta)
        assert (new.mu - expected).norm() == 0
        assert (new.mu_bar - (2.0 * new.mu - mu)).norm() == 0

    def test_moreau_split_recovers_primal_prox(self):
        # the eliminated v-update is recoverable from the dual one
        rng = np.random.default_rng(2)
        shapes = ((3, 3),)
        f = random_like(BlockVector.zeros(shapes), rng)
        prox_j = QuadraticAnchorProx(f, 1.0)
        delta = 0.6
        b = random_like(BlockVector.zeros(shapes), rng)
        mu_new = conjugate_apply(prox_j, b, delta)
        v_new = prox_j.apply((1.0 / delta) * b, 1.0 / delta)
        assert (b - (mu_new + delta * v_new)).norm() < 1e-12

    @staticmethod
    def fixed_point_residual(problem, cfg, u_prev, mu_prev, u_cur, mu_cur,
                             tau1) -> float:
        """Diagnostic inclusion residual of one dual-first step.

        Evaluates the monotone-inclusion form of the iteration with the
        subgradient selections implied by the two prox optimality
        conditions; exact steps give a residual at rounding level.
        """
        p = problem
        delta = cfg.delta
        g_prev = p.g.evaluate(u_prev)
        jac = p.g.jac(u_prev)

        b = mu_prev + delta * g_prev
        s_dual = (1.0 / delta) * (b - mu_cur)  # element of dJ*(mu_cur)
        offset = g_prev - jac.apply(u_prev)
        r1 = (s_dual - jac.apply(u_cur) - offset
              + (1.0 / delta) * (mu_cur - mu_prev)
              + jac.apply(u_cur - u_prev))

        mu_bar = 2.0 * mu_cur - mu_prev
        w = u_prev - tau1 * jac.adjoint(mu_bar)
        s_primal = (1.0 / tau1) * (w - u_cur)  # element of dH(u_cur)
        r2 = (s_primal + jac.adjoint(mu_cur)
              + (1.0 / tau1) * (u_cur - u_prev)
              + jac.adjoint(mu_cur - mu_prev))
        return (r1.norm() ** 2 + r2.norm() ** 2) ** 0.5

    def test_fixed_point_residual_vanishes_for_exact_step(self):
        rng = np.random.default_rng(3)
        shapes = ((4, 4),)
        f = random_like(BlockVector.zeros(shapes), rng)
        problem = denoising_problem(shapes, f)
        cfg = SolverConfig(delta=1.3, max_iterations=1)
        solver = PdhgmSolver(problem, cfg)
        u = random_like(BlockVector.zeros(shapes), rng)
        mu = random_like(BlockVector.zeros(shapes), rng)
        new = solver.step(SolverState(u=u, v=None, mu=mu, mu_bar=mu))
        res = self.fixed_point_residual(problem, cfg, u, mu, new.u, new.mu,
                                        new.tau1)
        assert res < 1e-10


class TestEquivalence:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_linear_quadratic_sequences_coincide(self, delta):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        g, dom, cod = matrix_operator(m)
        f = random_like(BlockVector.zeros(cod), rng)
        problem = SeparableProblem(
            g=g, prox_h=IdentityProx(),
            prox_j=QuadraticAnchorProx(f, 1.0),
            u0=random_like(BlockVector.zeros(dom), rng),
            mu0=random_like(BlockVector.zeros(cod), rng),
        )
        cfg = SolverConfig(delta=delta, max_iterations=100,
                           power_iter_tol=1e-12, power_iter_max=2000)
        assert equivalence_check(problem, cfg, 100) <= 1e-10

    def test_nonlinear_sequences_coincide(self):
        # pointwise square keeps the Jacobian base-point dependent
        shapes = ((3, 3),)
        g = CallableOperator(
            evaluate=lambda u: BlockVector([u[0] ** 2]),
            jac=lambda u: LinearMap(
                lambda h, u0=u[0].copy(): BlockVector([2.0 * u0 * h[0]]),
                lambda w, u0=u[0].copy(): BlockVector([2.0 * np.conj(u0) * w[0]]),
                shapes, shapes,
            ),
        )
        rng = np.random.default_rng(5)
        f = random_like(BlockVector.zeros(shapes), rng)
        problem = SeparableProblem(
            g=g, prox_h=IdentityProx(),
            prox_j=QuadraticAnchorProx(f, 0.5),
            u0=BlockVector([np.ones((3, 3), dtype=complex)]),
            mu0=BlockVector.zeros(shapes),
        )
        cfg = SolverConfig(delta=1.0, max_iterations=50,
                           power_iter_tol=1e-12, power_iter_max=2000)
        assert equivalence_check(problem, cfg, 50) <= 1e-8


class TestSeparableConstraintAdapter:
    def test_flag_and_jacobians(self):
        shapes = ((2, 2),)
        g = identity_operator(shapes)
        F = SeparableConstraint(g, BlockVector.zeros(shapes))
        assert F.jac_v_is_neg_identity
        rng = np.random.default_rng(6)
        u = random_like(BlockVector.zeros(shapes), rng)
        v = random_like(BlockVector.zeros(shapes), rng)
        assert (F.evaluate(u, v) - (u - v)).norm() == 0
        h = random_like(BlockVector.zeros(shapes), rng)
        assert (F.jac_v(u, v).apply(h) + h).norm() == 0

    def test_as_admm_problem_layout(self):
        shapes = ((2, 2),)
        problem = denoising_problem(shapes, BlockVector.zeros(shapes))
        ap = problem.as_admm_problem()
        assert ap.v0.shapes == problem.mu0.shapes
        assert ap.v0.norm() == 0
        assert ap.u0 is problem.u0


class TestSolverParity:
    """Both step rules run in one driver, so their reports mean the same."""

    def test_residuals_match_admm_index_for_index(self):
        # the equivalence_check setting on the criterion-5 MRI instance:
        # ADMM (B = -I gives tau2 = 1/delta), PDHGM started from its u^1
        exp = config_from_dict({
            "phantom": {"size": 16},
            "coils": {"count": 2, "seed": 1},
            "sampling": {"fraction": 0.3, "turns": 3.0, "sigma": 0.05,
                         "seed": 0},
            "solver": {"delta": 0.5, "power_iter_tol": 1e-9,
                       "power_iter_max": 300},
            "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
        })
        problem = separable_problem(mri_problem(simulate(exp), exp))
        iterations = 50
        cfg = replace(exp.solver, warm_start_opnorm=False,
                      max_iterations=iterations)
        ap = problem.as_admm_problem()
        u_hist = []
        _, admm = AdmmSolver(
            ap.constraint, ap.prox_h, ap.prox_j,
            replace(cfg, max_iterations=iterations + 1),
        ).run(ap.u0, ap.v0, ap.mu0, callbacks=[lambda st: u_hist.append(st.u)])
        _, _, pd = PdhgmSolver(replace(problem, u0=u_hist[0]), cfg).run()

        assert len(pd.residuals) == iterations
        for r_pd, r_admm in zip(pd.residuals, admm.residuals):
            assert abs(r_pd - r_admm) <= 1e-12 * r_admm
        assert pd.tau2s == [1.0 / cfg.delta] * iterations
        assert admm.tau2s == [1.0 / cfg.delta] * (iterations + 1)

    def test_divergence_reported_alike(self):
        problem = nan_problem()
        cfg = SolverConfig(max_iterations=5)
        ap = problem.as_admm_problem()
        state, admm = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j,
                                 cfg).run(ap.u0, ap.v0, ap.mu0)
        u, mu, pd = PdhgmSolver(problem, cfg).run()
        for report in (admm, pd):
            assert report.aborted
            assert report.iterations == 0
            assert report.residuals == []
        assert pd.abort_message == admm.abort_message
        assert "non-finite" in pd.abort_message
        assert state.u.isfinite() and u.isfinite() and mu.isfinite()
