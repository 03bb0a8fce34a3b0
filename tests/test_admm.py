import ast
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import padmm
from padmm.admm import AdmmSolver, Problem, SolverConfig, SolverState, run
from padmm.blocks import BlockVector
from padmm.constraint import LinearMap
from padmm.prox import IdentityProx

from oracles import (CallableConstraint, QuadraticAnchorProx,
                     affine_constraint, dense_surrogate_step, random_like,
                     ravel)
from test_steps import general_b_problem


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


def states(problem: Problem, cfg: SolverConfig):
    """The stream of ADMM iterates from the problem's start."""
    solver = AdmmSolver(problem.constraint, problem.prox_h, problem.prox_j, cfg)
    return solver.iterates(solver.start(problem.u0, problem.v0, problem.mu0))


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
        steps = list(states(problem, cfg))
        tau1s = [st.tau1 for st in steps]
        assert len(tau1s) == 5
        for tau1 in tau1s:
            assert abs(tau1 * delta * norm_k ** 2 - theta) < 1e-6
        # tau * delta * ||op||^2 < 1 is the positive-definiteness margin
        for tau1 in tau1s:
            assert tau1 * delta * norm_k ** 2 < 1.0
        # the v-step's tau2 comes from the same rule, with ||-I|| = 1
        for st in steps:
            assert abs(st.tau2 * delta - theta) < 1e-6
            assert st.tau2 * delta < 1.0

    @pytest.mark.parametrize("tau2", [0.123, 1.0 / 0.7])
    def test_tau2_override_rejected_on_a_general_constraint(self, tau2):
        # tau2 comes from the step rule there; the override may only
        # assert the separable step's exact 1/delta
        problem, _, _ = scalar_consensus()
        with pytest.raises(ValueError, match="tau2"):
            AdmmSolver(problem.constraint, problem.prox_h, problem.prox_j,
                       SolverConfig(delta=0.7, tau2_override=tau2))

    def test_opnorm_budget_warning_reaches_the_caller(self):
        # the stream silences numpy's overflow warnings, not this one
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

    def test_no_solver_method_writes_to_the_solver(self):
        # what one step hands the next travels in its state, so a run
        # depends on its start alone, however often the solver ran
        trees = [(path.name, ast.parse(path.read_text())) for path in
                 sorted(Path(padmm.__file__).parent.glob("*.py"))]
        classes = [(name, node) for name, tree in trees
                   for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        solvers, grown = {"Solver"}, True
        while grown:  # subclasses of subclasses, in any module
            found = {node.name for _, node in classes
                     if {getattr(b, "id", None) for b in node.bases} & solvers}
            solvers, grown = solvers | found, not found <= solvers
        assert {"Solver", "AdmmSolver", "PdhgmSolver"} <= solvers
        for name, cls in classes:
            if cls.name not in solvers:
                continue
            for method in cls.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name == "__init__"):
                    continue
                for node in ast.walk(method):
                    # a store or del into self.x, self.x[i], self.x.y ...
                    if (isinstance(node, (ast.Attribute, ast.Subscript))
                            and not isinstance(node.ctx, ast.Load)):
                        root = node.value
                        while isinstance(root, (ast.Attribute, ast.Subscript)):
                            root = root.value
                        assert getattr(root, "id", None) != "self", (
                            f"{name}:{node.lineno} {cls.name}.{method.name}")


class TestStepOrder:
    def test_general_b_step_evaluates_at_its_own_iterates(self):
        # the general-B counterpart of the separable step's one G
        # evaluation: jac_u at (u^k, v^k), jac_v at (u^{k+1}, v^k), and F
        # at (u^{k+1}, v^k), then at (u^{k+1}, v^{k+1})
        problem = general_b_problem(np.random.default_rng(4))
        F, calls = problem.constraint, {}

        def recorded(name):
            def call(u, v):
                calls.setdefault(name, []).append((u.copy(), v.copy()))
                return getattr(F, name)(u, v)
            return call

        problem = replace(problem, constraint=CallableConstraint(
            recorded("evaluate"), recorded("jac_u"), recorded("jac_v")))
        its = [(problem.u0, problem.v0)] + [
            (st.u, st.v) for st in states(problem, SolverConfig(
                delta=0.8, max_iterations=3))]
        assert len(its) == 4
        assert {name: len(c) for name, c in calls.items()} == {
            "jac_u": 3, "jac_v": 3, "evaluate": 6}

        def at(point, u, v):
            return all(np.array_equal(p, q) for p, q in zip(
                point[0].blocks + point[1].blocks, u.blocks + v.blocks))

        for k in range(3):
            (u, v), (u_new, v_new) = its[k], its[k + 1]
            assert at(calls["jac_u"][k], u, v)
            assert at(calls["jac_v"][k], u_new, v)
            assert at(calls["evaluate"][2 * k], u_new, v)
            assert at(calls["evaluate"][2 * k + 1], u_new, v_new)


class TestSurrogateAlgebra:
    """The prox-form update must solve the penalized linearized
    subproblems (``oracles.dense_surrogate_step`` sets them out)."""

    def test_dense_updates_match_direct_solves(self):
        state, mu_k, u_direct, v_direct, mu_direct = dense_surrogate_step()
        scale = max(np.linalg.norm(u_direct), 1.0)
        assert np.linalg.norm(ravel(state.u) - u_direct) <= 1e-10 * scale

        # v-subproblem with B = -I
        scale = max(np.linalg.norm(v_direct), 1.0)
        assert np.linalg.norm(ravel(state.v) - v_direct) <= 1e-10 * scale

        # multiplier update; the next step extrapolates from mu_k itself
        assert (state.mu - mu_direct).norm() == 0
        assert state.mu_prev is mu_k

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
        state = solver.step(SolverState(u=u_k, v=v_k, mu=mu_k, mu_prev=None))

        assert abs(state.tau2 * delta * norm_m ** 2 - theta) < 1e-6

        # v-subproblem: stationarity of J(v) + <mu, M v>
        # + delta/2 ||K u+ + M v - c||^2 + 1/2 ||v - v_k||_Q2^2
        eye = np.eye(p, dtype=complex)
        mhm = m.conj().T @ m
        q2 = (1.0 / state.tau2) * eye - delta * mhm
        m_v = wj * eye + delta * mhm + q2
        rhs_v = (wj * ravel(anchor_v) - m.conj().T @ ravel(mu_k)
                 - delta * m.conj().T @ (k @ ravel(state.u) - ravel(c))
                 + q2 @ ravel(v_k))
        v_direct = np.linalg.solve(m_v, rhs_v)
        scale = max(np.linalg.norm(v_direct), 1.0)
        assert np.linalg.norm(ravel(state.v) - v_direct) <= 1e-10 * scale


class TestDivergenceHandling:
    @staticmethod
    def _nan_problem():
        shapes = ((2,),)
        ident = LinearMap(lambda h: h, lambda w: w, shapes, shapes)
        F = CallableConstraint(
            evaluate=lambda u, v: BlockVector([np.full(2, np.nan, complex)]),
            jac_u=lambda u, v: ident,
            jac_v=lambda u, v: ident,
        )
        return Problem(F, IdentityProx(), IdentityProx(),
                       BlockVector.zeros(shapes), BlockVector.zeros(shapes),
                       BlockVector.zeros(shapes))

    def test_run_returns_start_state_unchanged(self):
        start = [BlockVector([np.array([x, x + 1], dtype=complex)])
                 for x in (1.0, 3.0, 5.0)]
        problem = replace(self._nan_problem(), u0=start[0], v0=start[1],
                          mu0=start[2])
        state, report = run(problem, SolverConfig(max_iterations=10))
        assert report.aborted
        assert report.iterations == 0 and report.residuals == []
        assert state.k == 0
        for got, want in ((state.u, start[0]), (state.v, start[1]),
                          (state.mu, start[2])):
            assert np.array_equal(got[0], want[0])
        assert state.mu_prev is None

    def test_run_reports_abort(self):
        problem = self._nan_problem()
        state, report = run(problem, SolverConfig(max_iterations=10))
        assert report.aborted
        assert "non-finite" in report.abort_message
        assert state.u.isfinite()


class TestIterates:
    def test_caller_errstate_holds_between_and_after_yields(self):
        # each step silences numpy on its own, never across a yield, so
        # interleaved streams cannot leave one another's setting behind
        problem, _, _ = scalar_consensus()
        with np.errstate(over="raise", invalid="warn", divide="print",
                         under="ignore"):
            want = np.geterr()
            short = states(problem, SolverConfig(max_iterations=2))
            long = states(problem, SolverConfig(max_iterations=5))
            pairs = 0
            for a, b in itertools.zip_longest(short, long):
                pairs += 1
                assert np.geterr() == want
            assert pairs == 5 and a is None and b.k == 5
            assert np.geterr() == want
        assert np.geterr() != want

    def test_run_reports_the_last_state_of_the_stream(self):
        problem, _, _ = scalar_consensus()
        cfg = SolverConfig(max_iterations=7)
        streamed = list(states(problem, cfg))
        state, report = run(problem, cfg)
        assert report.iterations == state.k == streamed[-1].k == 7
        assert report.residuals == [st.residual for st in streamed]
        assert np.array_equal(state.u[0], streamed[-1].u[0])


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"delta": 0.0}, {"delta": -1.0},
        {"theta": 0.0}, {"theta": 1.0},
        {"max_iterations": -1}, {"power_iter_max": 0},
        {"delta": float("nan")}, {"delta": float("inf")},
        {"theta": float("nan")},
        {"power_iter_tol": float("nan")}, {"power_iter_tol": -1.0},
        {"tau2_override": -1.0}, {"tau2_override": 0.0},
        {"tau2_override": float("nan")}, {"tau2_override": float("inf")},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_negative_seed_rejected(self):
        # before the run, not inside the first power iteration's RNG
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=-1)

    def test_report_text_round_trip(self):
        problem, _, _ = scalar_consensus()
        _, report = run(problem, SolverConfig(max_iterations=3))
        text = report.to_text()
        assert "iterations: 3" in text
        assert "aborted: 0" in text
