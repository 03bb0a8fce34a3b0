import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from padmm.blocks import BlockVector
from padmm.constraint import LinearMap
from padmm.mri import separable_problem
from padmm.pdhgm import PdhgmSolver, SeparableProblem, equivalence_check
from padmm.admm import AdmmSolver, SolverAborted, SolverConfig, SolverState
from padmm.pipeline import config_from_dict, mri_problem, simulate
from padmm.prox import IdentityProx, conjugate_apply

from oracles import (CallableOperator, QuadraticAnchorProx, bit_identical,
                     dense_map, random_like)


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
        new = solver.step(SolverState(u=u, v=None, mu=mu, mu_prev=None))
        b = mu + cfg.delta * u
        expected = conjugate_apply(problem.prox_j, b, cfg.delta)
        assert (new.mu - expected).norm() == 0
        # the step extrapolates 2 mu+ - mu itself (test_steps pins its bits)
        assert new.mu_prev is None

    def test_moreau_split_recovers_primal_prox(self):
        # the eliminated v-update is recoverable from the dual one
        rng = np.random.default_rng(2)
        shapes = ((3, 3),)
        f = random_like(BlockVector.zeros(shapes), rng)
        prox_j = QuadraticAnchorProx(f, 1.0)
        delta = 0.6
        b = random_like(BlockVector.zeros(shapes), rng)
        mu_new = conjugate_apply(prox_j, b.copy(), delta)
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
        new = solver.step(SolverState(u=u, v=None, mu=mu, mu_prev=None))
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

    @pytest.mark.parametrize("delta", [0.2, 1.0])
    def test_mri_sequences_agree_to_rounding(self, delta):
        # the ADMM with v kept takes other roundings than the dual-first
        # step, so the shifted u-sequences differ, but only in the last bits
        problem, cfg = TestSolverParity.mri_instance()
        deviation = equivalence_check(problem, replace(cfg, delta=delta), 20)
        assert 0.0 < deviation <= 1e-14

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


    @pytest.mark.parametrize("poisoned", ["admm", "pdhgm"])
    def test_an_aborted_run_raises(self, monkeypatch, poisoned):
        # either solver's abort ends the check: no deviation is reported
        # for sequences that stopped early
        shapes = ((3,),)
        problem = denoising_problem(shapes, BlockVector.zeros(shapes))
        problem = replace(problem, u0=BlockVector([np.ones(3, complex)]))
        solver = {"admm": AdmmSolver, "pdhgm": PdhgmSolver}[poisoned]
        step = solver.step

        def poisoned_step(self, state):
            new = step(self, state)
            if new.k == 3:
                new.u.blocks[0][0] = np.nan
            return new

        monkeypatch.setattr(solver, "step", poisoned_step)
        with pytest.raises(SolverAborted,
                           match="non-finite iterate at iteration 3"):
            equivalence_check(problem, SolverConfig(), 5)

    def test_peak_memory_does_not_grow_with_iterations(self):
        # the two streams are walked in lockstep and each pair is dropped
        # once compared; a kept u-history would add one u-layout vector
        # per iteration (about 70 here).  The slack of 8 vectors covers
        # CPython's and numpy's small-object caches, which are bounded.
        exp = config_from_dict({
            "phantom": {"size": 32},
            "coils": {"count": 2, "seed": 1},
            "sampling": {"fraction": 0.3, "turns": 3.0, "sigma": 0.05,
                         "seed": 0},
            "solver": {"delta": 0.5, "power_iter_tol": 1e-6,
                       "power_iter_max": 100},
            "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
        })
        problem = separable_problem(mri_problem(simulate(exp), exp))
        u_bytes = sum(b.nbytes for b in problem.u0.blocks)
        peaks = []
        for iterations in (10, 80):
            tracemalloc.start()
            try:
                equivalence_check(problem, exp.solver, iterations)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 8 * u_bytes

    @staticmethod
    def count_steps(monkeypatch) -> dict:
        counts = {}
        for solver in (AdmmSolver, PdhgmSolver):
            def counted(self, state, step=solver.step, name=solver.__name__):
                counts[name] = counts.get(name, 0) + 1
                return step(self, state)
            monkeypatch.setattr(solver, "step", counted)
        return counts

    @pytest.mark.parametrize("iterations", [-1, -2])
    def test_negative_count_rejected_before_any_step(self, monkeypatch,
                                                     iterations):
        counts = self.count_steps(monkeypatch)
        shapes = ((3,),)
        problem = denoising_problem(shapes, BlockVector.zeros(shapes))
        with pytest.raises(ValueError,
                           match="^iterations must be nonnegative$"):
            equivalence_check(problem, SolverConfig(), iterations)
        assert counts == {}

    def test_zero_iterations_compare_nothing(self, monkeypatch):
        # one ADMM step gives the dual-first start; no step follows it
        counts = self.count_steps(monkeypatch)
        shapes = ((3,),)
        problem = replace(denoising_problem(shapes, BlockVector.zeros(shapes)),
                          u0=BlockVector([np.ones(3, complex)]))
        assert equivalence_check(problem, SolverConfig(), 0) == 0.0
        assert counts == {"AdmmSolver": 1}


class TestSeparableConstraintAdapter:
    """The ADMM adapts G(u) - v = 0 by taking G itself and steps without v."""

    def test_admm_step_evaluates_g_once(self):
        # one G evaluation (the mu-half) and one Jacobian (the u-step)
        # per step
        shapes = ((2, 2),)
        rng = np.random.default_rng(7)
        evaluations, jacobians = [], []

        def evaluate(u):
            evaluations.append(u)
            return 2.0 * u

        def jac(u):
            jacobians.append(u)
            return LinearMap(lambda h: 2.0 * h, lambda w: 2.0 * w,
                             shapes, shapes)

        g = CallableOperator(evaluate=evaluate, jac=jac)
        anchor = random_like(BlockVector.zeros(shapes), rng)
        ap = replace(denoising_problem(shapes, anchor), g=g).as_admm_problem()
        _, report = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j,
                               SolverConfig(max_iterations=3)).run(
            ap.u0, ap.v0, ap.mu0)
        assert report.iterations == 3
        assert len(evaluations) == 3
        assert len(jacobians) == 3

    def test_as_admm_problem_layout(self):
        # the ADMM takes G itself and carries no v, so v0 is no vector
        shapes = ((2, 2),)
        problem = denoising_problem(shapes, BlockVector.zeros(shapes))
        ap = problem.as_admm_problem()
        assert ap.constraint is problem.g
        assert ap.v0 is None
        assert ap.u0 is problem.u0

    def test_separable_states_carry_no_v(self):
        problem = denoising_problem(((3,),), BlockVector([np.ones(3, complex)]))
        ap = problem.as_admm_problem()
        solver = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j,
                            SolverConfig(delta=0.7, max_iterations=4))
        start = solver.start(ap.u0, ap.v0, ap.mu0)
        states = list(solver.iterates(start))
        assert len(states) == 4
        assert all(st.v is None for st in [start] + states)
        assert all(st.tau2 == 1.0 / 0.7 for st in states)

    @pytest.mark.parametrize("tau2", [0.5, 1.0 / 0.7 * (1 + 1e-15), 2.0])
    def test_tau2_other_than_one_over_delta_rejected(self, tau2):
        ap = denoising_problem(((3,),), BlockVector.zeros(((3,),))
                               ).as_admm_problem()
        with pytest.raises(ValueError, match="tau2"):
            AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j,
                       SolverConfig(delta=0.7, tau2_override=tau2))
        # the one override the exact v-step allows is accepted
        AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j,
                   SolverConfig(delta=0.7, tau2_override=1.0 / 0.7))


class TestSolverParity:
    """Both step rules run in one driver, so their reports mean the same."""

    @staticmethod
    def mri_instance():
        """The criterion-5 MRI instance and its solver settings."""
        exp = config_from_dict({
            "phantom": {"size": 16},
            "coils": {"count": 2, "seed": 1},
            "sampling": {"fraction": 0.3, "turns": 3.0, "sigma": 0.05,
                         "seed": 0},
            "solver": {"delta": 0.5, "power_iter_tol": 1e-9,
                       "power_iter_max": 300},
            "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
        })
        return separable_problem(mri_problem(simulate(exp), exp)), exp.solver

    def test_residuals_match_admm_index_for_index(self):
        # the equivalence_check setting: ADMM (B = -I gives
        # tau2 = 1/delta), PDHGM started from its u^1 and eigenvector
        problem, cfg = self.mri_instance()
        iterations = 50
        cfg = replace(cfg, max_iterations=iterations)
        ap = problem.as_admm_problem()
        admm_solver = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j,
                                 replace(cfg, max_iterations=iterations + 1))
        admm_states = list(admm_solver.iterates(
            admm_solver.start(ap.u0, ap.v0, ap.mu0)))
        pd_solver = PdhgmSolver(replace(problem, u0=admm_states[0].u), cfg)
        pd_states = list(pd_solver.iterates(
            replace(pd_solver.start(), eig_a=admm_states[0].eig_a)))

        assert len(pd_states) == iterations
        # the ADMM step is the dual-first step's halves in the other
        # order: iterate k's mu-half is ADMM iterate k + 1's, and it is
        # linearised where ADMM iterate k + 1 is, its power iteration
        # warm-started alike (a fresh dual-first start would be 7e-5 off)
        assert ([pd.residual for pd in pd_states]
                == [admm.residual for admm in admm_states[:iterations]])
        assert ([pd.tau1 for pd in pd_states]
                == [admm.tau1 for admm in admm_states[1:]])
        assert [st.tau2 for st in pd_states] == [1.0 / cfg.delta] * iterations
        assert ([st.tau2 for st in admm_states]
                == [1.0 / cfg.delta] * (iterations + 1))
        # the two orders of the same two halves: the same bits
        assert all(bit_identical(p, q) for pd, admm in
                   zip(pd_states, admm_states[1:])
                   for p, q in zip(pd.u.blocks, admm.u.blocks))

    @pytest.mark.parametrize("algorithm", ["admm", "pdhgm"])
    def test_a_second_run_repeats_the_first(self, algorithm):
        # the solver keeps no warm start between runs: each run's power
        # iterations start fresh from the seed, as a new solver's do
        problem, cfg = self.mri_instance()
        cfg = replace(cfg, max_iterations=10)
        if algorithm == "admm":
            ap = problem.as_admm_problem()
            solver = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j, cfg)
            runs = [solver.run(ap.u0, ap.v0, ap.mu0) for _ in range(2)]
            runs = [(state.u, state.mu, report) for state, report in runs]
        else:
            solver = PdhgmSolver(problem, cfg)
            runs = [solver.run() for _ in range(2)]
        (u1, mu1, first), (u2, mu2, second) = runs
        for x, y in zip(u1.blocks + mu1.blocks, u2.blocks + mu2.blocks):
            assert bit_identical(x, y)
        assert second.residuals == first.residuals

    @pytest.mark.parametrize("algorithm", ["admm", "pdhgm"])
    def test_stream_raises_the_abort_run_reports(self, algorithm):
        problem = nan_problem()
        cfg = SolverConfig(max_iterations=5)
        if algorithm == "admm":
            ap = problem.as_admm_problem()
            solver = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j, cfg)
            stream = solver.iterates(solver.start(ap.u0, ap.v0, ap.mu0))
            report = solver.run(ap.u0, ap.v0, ap.mu0)[-1]
        else:
            solver = PdhgmSolver(problem, cfg)
            stream = solver.iterates(solver.start())
            report = solver.run()[-1]
        with pytest.raises(SolverAborted) as caught:
            next(stream)
        assert str(caught.value) == report.abort_message
        assert report.abort_message == "non-finite iterate at iteration 1"

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

    def test_overflowing_residual_reported_alike(self):
        # the first step of either solver has finite iterates of order
        # 1e200, whose residual norm overflows
        shapes = ((2,),)
        problem = replace(denoising_problem(shapes, BlockVector.zeros(shapes)),
                          u0=BlockVector([np.full(2, 1e200, complex)]))
        cfg = SolverConfig(max_iterations=5)
        ap = problem.as_admm_problem()
        _, admm = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j,
                             cfg).run(ap.u0, ap.v0, ap.mu0)
        _, _, pd = PdhgmSolver(problem, cfg).run()
        # the state each run rejected: the first step of a cold solver
        admm_solver = AdmmSolver(ap.constraint, ap.prox_h, ap.prox_j, cfg)
        pd_solver = PdhgmSolver(problem, cfg)
        with np.errstate(over="ignore"):
            admm_first = admm_solver.step(
                admm_solver.start(ap.u0, ap.v0, ap.mu0))
            pd_first = pd_solver.step(pd_solver.start())
        for report, first in ((admm, admm_first), (pd, pd_first)):
            assert first.u.isfinite() and first.mu.isfinite()
            assert first.residual == float("inf")
            assert report.aborted
            assert report.iterations == 0
            assert report.residuals == []
        assert admm_first.v is None
        assert pd.abort_message == admm.abort_message
