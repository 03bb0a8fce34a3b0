"""The in-place solver steps: the bits of the BlockVector arithmetic they
replace, states that own their arrays, and the peak memory of one step."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from padmm import admm
from padmm.admm import AdmmSolver, Problem, SolverConfig, SolverState
from padmm.blocks import BlockVector
from padmm.constraint import ExplicitV, LinearMap
from padmm.mri import separable_problem
from padmm.pdhgm import PdhgmSolver
from padmm.pipeline import config_from_dict, mri_problem, simulate
from padmm.prox import IdentityProx

from oracles import (CallableConstraint, QuadraticAnchorProx, bit_identical,
                     dense_map, random_like, reference_admm_step,
                     reference_pdhgm_step)
from test_pdhgm import denoising_problem

STEPS = 6
FIELDS = ("u", "v", "mu", "mu_prev", "eig_a", "eig_b")


def small_mri(delta, size=16, coils=2, turns=3.0):
    exp = config_from_dict({
        "phantom": {"size": size},
        "coils": {"count": coils, "seed": 1},
        "sampling": {"fraction": 0.3, "turns": turns, "sigma": 0.05,
                     "seed": 0},
        "solver": {"delta": delta, "power_iter_max": 100},
        "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
    })
    return separable_problem(mri_problem(simulate(exp), exp)), exp.solver


def admm_solver(problem: Problem, cfg):
    return AdmmSolver(problem.constraint, problem.prox_h, problem.prox_j, cfg)


def admm_start(problem: Problem) -> SolverState:
    return AdmmSolver.start(problem.u0, problem.v0, problem.mu0)


def own_arrays(state: SolverState):
    """The state's arrays but mu_prev's, which are its predecessor's mu."""
    return [b for f in FIELDS if f != "mu_prev" and getattr(state, f) is not None
            for b in getattr(state, f).blocks]


def snapshot(state: SolverState) -> SolverState:
    return replace(state, **{f: getattr(state, f).copy() for f in FIELDS
                             if getattr(state, f) is not None})


def assert_same_state(a: SolverState, b: SolverState):
    assert (a.k, a.tau1, a.tau2) == (b.k, b.tau1, b.tau2)
    assert a.residual == b.residual or (np.isnan(a.residual)
                                        and np.isnan(b.residual))
    for f in FIELDS:
        x, y = getattr(a, f), getattr(b, f)
        assert (x is None) == (y is None), f
        if x is not None:
            assert x.shapes == y.shapes, f
            assert all(bit_identical(p, q)
                       for p, q in zip(x.blocks, y.blocks)), f


def general_b_problem(rng):
    """F(u, v) = K u + M v - c with a dense M (not -I) and c != 0."""
    n = 5
    k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kmap, mmap = dense_map(k), dense_map(m)
    shapes = kmap.domain_shapes
    c = random_like(BlockVector.zeros(shapes), rng)
    F = CallableConstraint(
        evaluate=lambda u, v: kmap.apply(u) + mmap.apply(v) - c,
        jac_u=lambda u, v: kmap, jac_v=lambda u, v: mmap)
    return Problem(
        constraint=F,
        prox_h=QuadraticAnchorProx(random_like(BlockVector.zeros(shapes), rng)),
        prox_j=QuadraticAnchorProx(random_like(BlockVector.zeros(shapes), rng),
                                   0.7),
        u0=random_like(BlockVector.zeros(shapes), rng),
        v0=BlockVector.zeros(shapes),
        mu0=BlockVector.zeros(shapes),
    )


def unseparable_prox_j(problem, rng):
    """The MRI problem with one resolvent on the whole v-layout."""
    anchor = random_like(BlockVector.zeros(problem.mu0.shapes), rng)
    return replace(problem, prox_j=QuadraticAnchorProx(anchor, 0.5))


class TestSameBitsAsBlockArithmetic:
    """Each step equals its BlockVector form in tests/oracles.py, signed
    zeros included, step after step."""

    @staticmethod
    def check_admm(problem: Problem, cfg):
        fast, ref = admm_solver(problem, cfg), admm_solver(problem, cfg)
        a = b = admm_start(problem)
        for _ in range(STEPS):
            a, b = fast.step(a), reference_admm_step(ref, b)
            assert_same_state(a, b)

    @staticmethod
    def check_pdhgm(problem, cfg):
        fast, ref = PdhgmSolver(problem, cfg), PdhgmSolver(problem, cfg)
        a = b = fast.start()
        for _ in range(STEPS):
            a, b = fast.step(a), reference_pdhgm_step(ref, b)
            assert_same_state(a, b)

    @pytest.mark.parametrize("delta", [0.2, 1.0])
    def test_mri(self, delta):
        problem, cfg = small_mri(delta)
        self.check_admm(problem.as_admm_problem(), cfg)
        self.check_admm(replace(problem.as_admm_problem(),
                                constraint=ExplicitV(problem.g),
                                v0=BlockVector.zeros(problem.mu0.shapes)), cfg)
        self.check_pdhgm(problem, cfg)

    def test_general_b_and_nonzero_target(self):
        problem = general_b_problem(np.random.default_rng(0))
        self.check_admm(problem, SolverConfig(delta=0.6))
        self.check_admm(problem, SolverConfig(delta=1.0))

    def test_prox_j_that_is_not_a_separable_sum(self):
        problem, cfg = small_mri(0.2)
        problem = unseparable_prox_j(problem, np.random.default_rng(1))
        self.check_admm(problem.as_admm_problem(), cfg)
        self.check_pdhgm(problem, cfg)


def identity_map(shapes):
    """A LinearMap whose apply and adjoint hand back their argument."""
    return LinearMap(lambda h: h, lambda w: w, shapes, shapes)


def pass_through_problem(rng):
    """F(u, v) = u + v - c: A = B = I return their arguments, and both
    resolvents are IdentityProx, which returns its argument too."""
    shapes = ((3, 3),)
    ident = identity_map(shapes)
    c = random_like(BlockVector.zeros(shapes), rng)
    F = CallableConstraint(
        evaluate=lambda u, v: u + v - c, jac_u=lambda u, v: ident,
        jac_v=lambda u, v: ident)
    return Problem(F, IdentityProx(), IdentityProx(),
                   random_like(BlockVector.zeros(shapes), rng),
                   random_like(BlockVector.zeros(shapes), rng),
                   random_like(BlockVector.zeros(shapes), rng))


class TestStatesOwnTheirArrays:
    """Callers of ``iterates`` and callbacks may keep states; a later step
    must never write into them, and no two states may share an array
    but one: an ADMM state's mu_prev is its predecessor's mu itself."""

    @staticmethod
    def check(solver, start: SolverState):
        kept = [(start, snapshot(start))]
        for _ in range(STEPS):
            prev = kept[-1][0]
            new = solver.step(prev)
            if isinstance(solver, PdhgmSolver):
                assert new.mu_prev is None
            else:
                assert new.mu_prev is prev.mu
            kept.append((new, snapshot(new)))
        for state, copy in kept:
            assert_same_state(state, copy)
        # the start is the input of the first step, each state the
        # input of the next, so this also covers step inputs
        seen = [b for state, _ in kept for b in own_arrays(state)]
        for i, a in enumerate(seen):
            for b in seen[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_mri_with_identity_prox_h(self):
        # prox_h is IdentityProx, so u+ is the adjoint's own output
        problem, cfg = small_mri(0.2)
        assert isinstance(problem.prox_h, IdentityProx)
        ap = problem.as_admm_problem()
        self.check(admm_solver(ap, cfg), admm_start(ap))
        pd = PdhgmSolver(problem, cfg)
        self.check(pd, pd.start())

    def test_maps_that_return_their_argument(self):
        rng = np.random.default_rng(2)
        problem = pass_through_problem(rng)
        self.check(admm_solver(problem, SolverConfig()), admm_start(problem))
        # G(u) = u, its Jacobian's adjoint returns its argument
        shapes = ((3, 3),)
        f = random_like(BlockVector.zeros(shapes), rng)
        pd = replace(denoising_problem(shapes, f),
                     u0=random_like(BlockVector.zeros(shapes), rng),
                     mu0=random_like(BlockVector.zeros(shapes), rng))
        solver = PdhgmSolver(pd, SolverConfig(delta=0.7))
        self.check(solver, solver.start())
        ap = pd.as_admm_problem()
        self.check(admm_solver(ap, SolverConfig(delta=0.7)), admm_start(ap))


class TestFusedExtrapolation:
    """``descend`` takes A*(2 mu - mu_prev) from the MRI Jacobian's fused
    adjoint, and gives the u+ of a map rebuilt from apply and adjoint
    only, as ``benchmarks/spans.py`` rebuilds it, bit for bit."""

    def test_same_u_as_a_map_without_the_fused_adjoint(self):
        problem, cfg = small_mri(0.2)
        ap = problem.as_admm_problem()
        solver, state = admm_solver(ap, cfg), admm_start(ap)
        for _ in range(3):
            state = solver.step(state)
        jac = problem.g.jac(state.u)
        mu, mu_prev = state.mu, state.mu_prev
        before = mu.copy(), mu_prev.copy()
        calls = []

        def refuse(w):
            raise AssertionError("descend stored 2 mu - mu_prev")

        def counted(a, b):
            calls.append(a)
            return jac.adjoint_extrapolated(a, b)

        fused = replace(jac, adjoint=refuse, adjoint_extrapolated=counted)
        rebuilt = LinearMap(apply=jac.apply, adjoint=jac.adjoint,
                            domain_shapes=jac.domain_shapes,
                            codomain_shapes=jac.codomain_shapes)
        got, want = (admm.descend(m, state.tau1, state.u, mu, mu_prev,
                                  problem.prox_h) for m in (fused, rebuilt))
        assert len(calls) == 1
        for x, y in zip(got.blocks, want.blocks):
            assert bit_identical(x, y)
        for now, then in zip(mu.blocks + mu_prev.blocks,
                             before[0].blocks + before[1].blocks):
            assert bit_identical(now, then)


class TestStepPeakMemory:
    """The traced peak of one warm step above its entry, in v-layout
    vectors: the in-place passes hold few v-layout temporaries.  On this
    config the steps give about 2.2 (admm) and 2.0 (pdhgm); with mubar
    stored for the adjoint call they gave 2.2 and 3.0, with a stored
    mubar and a multiplier half out of place 3.7 and 3.0, and written as
    BlockVector arithmetic about 6.4 and 4.6.  The admm peak sits in its
    mu-half, where the incoming state still holds mu^{k-1}."""

    LIMITS = {"admm": 2.75, "pdhgm": 2.5}

    @pytest.mark.parametrize("algorithm", ["admm", "pdhgm"])
    def test_warm_step_peak(self, algorithm):
        tracemalloc.start()
        try:
            # 48x48 with 4 coils; the default 12 spiral turns make the
            # mask search fail on grids this small
            problem, cfg = small_mri(0.2, size=48, coils=4, turns=4.0)
            if algorithm == "admm":
                ap = problem.as_admm_problem()
                solver, state = admm_solver(ap, cfg), admm_start(ap)
            else:
                solver = PdhgmSolver(problem, cfg)
                state = solver.start()
            for _ in range(3):
                state = solver.step(state)
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            new = solver.step(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert new.k == 4
        v_bytes = sum(b.nbytes for b in problem.mu0.blocks)
        assert (peak - entry) / v_bytes <= self.LIMITS[algorithm]

    def test_admm_run_peak(self):
        # the whole run, start state included: the separable ADMM holds no
        # v, no stored mubar and no start copy of either (about 5.0; 6.5
        # with a stored mubar)
        problem, cfg = small_mri(0.2, size=48, coils=4, turns=4.0)
        v_bytes = sum(b.nbytes for b in problem.mu0.blocks)
        tracemalloc.start()
        try:
            state, report = admm.run(problem.as_admm_problem(),
                                     replace(cfg, max_iterations=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 4 and state.v is None
        assert peak / v_bytes <= 5.5
