import numpy as np
import pytest

from padmm.admm import (AdmmSolver, Problem, SolverConfig, SolverDivergence,
                        SolverState, run)
from padmm.blocks import BlockVector, random_like
from padmm.constraint import LinearMap
from padmm.prox import IdentityProx

from oracles import CallableConstraint, QuadraticAnchorProx, affine_constraint


def scalar_consensus():
    """min (u - a)^2/2 + (v - b)^2/2  s.t.  u = v, as F(u, v) = u - v = 0."""
    a, b = 3.0, -1.0
    shapes = ((1,),)
    ident = LinearMap(lambda h: h, lambda w: w, shapes, shapes)
    neg = LinearMap(lambda h: -h, lambda w: -w, shapes, shapes)
    F = CallableConstraint(
        evaluate=lambda u, v: u - v,
        jac_u=lambda u, v: ident,
        jac_v=lambda u, v: neg,
        target=BlockVector.zeros(shapes),
    )
    anchor_u = BlockVector([np.array([a], dtype=complex)])
    anchor_v = BlockVector([np.array([b], dtype=complex)])
    problem = Problem(
        constraint=F,
        prox_h=QuadraticAnchorProx(anchor_u, 1.0),
        prox_j=QuadraticAnchorProx(anchor_v, 1.0),
        u0=BlockVector.zeros(shapes),
        v0=BlockVector.zeros(shapes),
        mu0=BlockVector.zeros(shapes),
    )
    return problem, a, b


class TestFixedPoints:
    def test_zero_is_a_fixed_point(self):
        rng = np.random.default_rng(0)
        k = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        shapes = ((5,),)
        F = affine_constraint(k, BlockVector.zeros(shapes))
        problem = Problem(F, IdentityProx(), IdentityProx(),
                          BlockVector.zeros(shapes), BlockVector.zeros(shapes),
                          BlockVector.zeros(shapes))
        state, report = run(problem, SolverConfig(max_iterations=20))
        assert state.u.norm() == 0
        assert state.v.norm() == 0
        assert state.mu.norm() == 0
        assert report.final_residual == 0

    def test_scalar_consensus_reaches_kkt_point(self):
        problem, a, b = scalar_consensus()
        state, report = run(problem, SolverConfig(max_iterations=500))
        u_star = 0.5 * (a + b)
        mu_star = 0.5 * (a - b)
        assert abs(state.u[0][0] - u_star) < 1e-8
        assert abs(state.v[0][0] - u_star) < 1e-8
        assert abs(state.mu[0][0] - mu_star) < 1e-8
        assert report.final_residual < 1e-8
        assert not report.aborted

    def test_zero_iterations_returns_start(self):
        problem, _, _ = scalar_consensus()
        state, report = run(problem, SolverConfig(max_iterations=0))
        assert state.k == 0
        assert state.u.norm() == 0
        assert np.isnan(report.final_residual)


class TestStepSizes:
    def test_tau1_saturates_step_rule(self):
        rng = np.random.default_rng(1)
        k = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        norm_k = np.linalg.svd(k, compute_uv=False)[0]
        shapes = ((6,),)
        c = random_like(BlockVector.zeros(shapes), rng)
        problem = Problem(affine_constraint(k, c), IdentityProx(),
                          IdentityProx(), BlockVector.zeros(shapes),
                          BlockVector.zeros(shapes), BlockVector.zeros(shapes))
        delta, theta = 1.7, 0.9
        cfg = SolverConfig(delta=delta, theta=theta, max_iterations=5,
                           power_iter_tol=1e-13, power_iter_max=5000)
        _, report = run(problem, cfg)
        for tau1 in report.tau1s:
            assert abs(tau1 * delta * norm_k ** 2 - theta) < 1e-6
        # tau * delta * ||op||^2 < 1 is the positive-definiteness margin
        for tau1 in report.tau1s:
            assert tau1 * delta * norm_k ** 2 < 1.0

    def test_tau2_override_is_used_verbatim(self):
        problem, _, _ = scalar_consensus()
        cfg = SolverConfig(max_iterations=3, tau2_override=0.123)
        _, report = run(problem, cfg)
        assert report.tau2s == [0.123] * 3

    def test_opnorm_budget_warning_reaches_the_caller(self):
        # the run loop silences numpy's overflow warnings, not this one
        problem, _, _ = scalar_consensus()
        cfg = SolverConfig(max_iterations=1, power_iter_max=1)
        with pytest.warns(RuntimeWarning, match="power iteration"):
            run(problem, cfg)


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        results = []
        for _ in range(2):
            problem, _, _ = scalar_consensus()
            state, _ = run(problem, SolverConfig(max_iterations=50))
            results.append(state)
        assert np.array_equal(results[0].u[0], results[1].u[0])
        assert np.array_equal(results[0].mu[0], results[1].mu[0])


class TestSurrogateAlgebra:
    """The prox-form update must solve the penalized linearized subproblem.

    One step on a dense affine instance is compared against a direct
    linear solve of the stationarity system of

        delta/2 ||A u - c1||^2 + <mu, A u> + H(u) + 1/2 ||u - u_k||_Q^2

    with Q = (1/tau) I - delta A* A, and the analogous v-subproblem.
    """

    def test_dense_updates_match_direct_solves(self):
        rng = np.random.default_rng(2)
        n = 6
        k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        shapes = ((n,),)
        c = random_like(BlockVector.zeros(shapes), rng)
        F = affine_constraint(k, c)

        wh, wj = 0.8, 1.3
        anchor_u = random_like(BlockVector.zeros(shapes), rng)
        anchor_v = random_like(BlockVector.zeros(shapes), rng)
        prox_h = QuadraticAnchorProx(anchor_u, wh)
        prox_j = QuadraticAnchorProx(anchor_v, wj)

        u_k = random_like(BlockVector.zeros(shapes), rng)
        v_k = random_like(BlockVector.zeros(shapes), rng)
        mu_prev = random_like(BlockVector.zeros(shapes), rng)
        delta = 0.7
        # consistent dual pair: mu_k produced by the multiplier update
        mu_k = mu_prev + delta * (F.evaluate(u_k, v_k) - c)
        mu_bar = 2.0 * mu_k - mu_prev

        cfg = SolverConfig(delta=delta, theta=0.9, max_iterations=1,
                           power_iter_tol=1e-14, power_iter_max=5000)
        solver = AdmmSolver(F, prox_h, prox_j, cfg)
        state = solver.step(SolverState(u=u_k, v=v_k, mu=mu_k, mu_bar=mu_bar))

        eye = np.eye(n, dtype=complex)
        khk = k.conj().T @ k

        # u-subproblem: stationarity of the surrogate objective
        q1 = (1.0 / state.tau1) * eye - delta * khk
        c1 = (c + v_k).ravel()
        m_u = delta * khk + wh * eye + q1
        rhs_u = (delta * k.conj().T @ c1 - k.conj().T @ mu_k.ravel()
                 + wh * anchor_u.ravel() + q1 @ u_k.ravel())
        u_direct = np.linalg.solve(m_u, rhs_u)
        scale = max(np.linalg.norm(u_direct), 1.0)
        assert np.linalg.norm(state.u.ravel() - u_direct) <= 1e-10 * scale

        # v-subproblem with B = -I
        q2 = (1.0 / state.tau2) * eye - delta * eye
        c2 = (c - BlockVector.from_ravel(k @ state.u.ravel(), shapes)).ravel()
        m_v = delta * eye + wj * eye + q2
        rhs_v = (-delta * c2 + mu_k.ravel()
                 + wj * anchor_v.ravel() + q2 @ v_k.ravel())
        v_direct = np.linalg.solve(m_v, rhs_v)
        scale = max(np.linalg.norm(v_direct), 1.0)
        assert np.linalg.norm(state.v.ravel() - v_direct) <= 1e-10 * scale

        # multiplier update and extrapolation
        mu_direct = mu_k + delta * (F.evaluate(state.u, state.v) - c)
        assert (state.mu - mu_direct).norm() == 0
        assert (state.mu_bar - (2.0 * state.mu - mu_k)).norm() == 0

    def test_general_b_v_update_matches_direct_solve(self):
        # a non-square complex M: a swapped apply/adjoint or a wrong
        # norm in the v-step cannot hide behind B* = B and ||B|| = 1
        rng = np.random.default_rng(3)
        n, p = 6, 4
        k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        norm_m = np.linalg.svd(m, compute_uv=False)[0]
        c = random_like(BlockVector.zeros(((n,),)), rng)
        F = affine_constraint(k, c, m)

        wj = 1.3
        anchor_v = random_like(BlockVector.zeros(((p,),)), rng)
        u_k = random_like(BlockVector.zeros(((n,),)), rng)
        v_k = random_like(BlockVector.zeros(((p,),)), rng)
        mu_k = random_like(BlockVector.zeros(((n,),)), rng)
        delta, theta = 0.7, 0.9
        cfg = SolverConfig(delta=delta, theta=theta, max_iterations=1,
                           power_iter_tol=1e-14, power_iter_max=5000)
        solver = AdmmSolver(F, IdentityProx(),
                            QuadraticAnchorProx(anchor_v, wj), cfg)
        state = solver.step(SolverState(u=u_k, v=v_k, mu=mu_k, mu_bar=mu_k))

        assert abs(state.tau2 * delta * norm_m ** 2 - theta) < 1e-6

        # v-subproblem: stationarity of J(v) + <mu, M v>
        # + delta/2 ||K u+ + M v - c||^2 + 1/2 ||v - v_k||_Q2^2
        eye = np.eye(p, dtype=complex)
        mhm = m.conj().T @ m
        q2 = (1.0 / state.tau2) * eye - delta * mhm
        m_v = wj * eye + delta * mhm + q2
        rhs_v = (wj * anchor_v.ravel() - m.conj().T @ mu_k.ravel()
                 - delta * m.conj().T @ (k @ state.u.ravel() - c.ravel())
                 + q2 @ v_k.ravel())
        v_direct = np.linalg.solve(m_v, rhs_v)
        scale = max(np.linalg.norm(v_direct), 1.0)
        assert np.linalg.norm(state.v.ravel() - v_direct) <= 1e-10 * scale


class TestDivergenceHandling:
    @staticmethod
    def _nan_problem():
        shapes = ((2,),)
        ident = LinearMap(lambda h: h, lambda w: w, shapes, shapes)
        F = CallableConstraint(
            evaluate=lambda u, v: BlockVector([np.full(2, np.nan, complex)]),
            jac_u=lambda u, v: ident,
            jac_v=lambda u, v: ident,
            target=BlockVector.zeros(shapes),
        )
        return Problem(F, IdentityProx(), IdentityProx(),
                       BlockVector.zeros(shapes), BlockVector.zeros(shapes),
                       BlockVector.zeros(shapes))

    def test_step_raises_with_last_state(self):
        problem = self._nan_problem()
        solver = AdmmSolver(problem.constraint, problem.prox_h,
                            problem.prox_j, SolverConfig(max_iterations=1))
        state0 = SolverState(u=problem.u0, v=problem.v0, mu=problem.mu0,
                             mu_bar=problem.mu0)
        with pytest.raises(SolverDivergence) as err:
            solver.step(state0)
        assert err.value.last_state is state0

    def test_run_reports_abort(self):
        problem = self._nan_problem()
        state, report = run(problem, SolverConfig(max_iterations=10))
        assert report.aborted
        assert "non-finite" in report.abort_message
        assert state.u.isfinite()


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"delta": 0.0}, {"delta": -1.0},
        {"theta": 0.0}, {"theta": 1.0},
        {"max_iterations": -1}, {"power_iter_max": 0},
        {"delta": float("nan")}, {"delta": float("inf")},
        {"theta": float("nan")},
        {"power_iter_tol": float("nan")}, {"power_iter_tol": -1.0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()

    def test_report_text_round_trip(self):
        problem, _, _ = scalar_consensus()
        _, report = run(problem, SolverConfig(max_iterations=3))
        text = report.to_text()
        assert "iterations: 3" in text
        assert "aborted: 0" in text
