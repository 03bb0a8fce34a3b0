import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import padmm.admm
import padmm.mri
from padmm.admm import Solver, SolverConfig, extrapolate
from padmm.blocks import BlockVector, cache_aligned
from padmm.fields import grad
from padmm.mri import (CoilGradOperator, MriProblem, assemble_prox_j,
                       initial_unknowns, separable_problem)
from padmm.opnorm import estimate_opnorm
from padmm.pipeline import ExperimentConfig
from padmm.prox import (FourierFidelityProx, GlobalShrinkProx, GroupShrinkProx,
                        IdentityProx)

from oracles import (adjoint_check, bit_identical, coil_jac_rows,
                     fd_jacobian_check, random_like, same_bits,
                     signed_zero_field)


def off_line(block):
    """A copy of ``block`` whose data starts 16 bytes past a cache line."""
    buf = cache_aligned((block.size + 1,))
    moved = buf[1:].reshape(block.shape)
    moved[...] = block
    return moved


def small_problem(n_coils=2, size=6, seed=0):
    rng = np.random.default_rng(seed)
    mask = (rng.uniform(size=(size, size)) < 0.5).astype(float)
    mask[0, 0] = 1.0
    data = [mask * (rng.standard_normal((size, size))
                    + 1j * rng.standard_normal((size, size)))
            for _ in range(n_coils)]
    return MriProblem(mask=mask, data=data, lam=0.5, alpha0=0.1,
                      alpha=0.9)


class TestCoilGradOperator:
    def test_layouts(self):
        op = CoilGradOperator(3, (5, 5))
        assert op.u_shapes == ((5, 5),) * 4
        assert op.v_shapes == ((5, 5),) * 3 + ((2, 5, 5),) * 4

    def test_evaluate_stacks_products_and_gradients(self):
        rng = np.random.default_rng(3)
        op = CoilGradOperator(2, (4, 4))
        u = random_like(BlockVector.zeros(op.u_shapes), rng)
        out = op.evaluate(u)
        assert np.array_equal(out[0], u[0] * u[1])
        assert np.array_equal(out[1], u[0] * u[2])
        for i in range(3):
            assert np.array_equal(out[2 + i], grad(u[i]))

    def test_layout_mismatch_rejected(self):
        op = CoilGradOperator(2, (4, 4))
        with pytest.raises(ValueError):
            op.evaluate(BlockVector.zeros(((4, 4),)))

    def test_full_jacobian_fd_and_adjoint(self):
        rng = np.random.default_rng(4)
        op = CoilGradOperator(2, (5, 5))
        u = random_like(BlockVector.zeros(op.u_shapes), rng)
        jac = op.jac(u)
        d = random_like(BlockVector.zeros(op.u_shapes), rng)
        err = fd_jacobian_check(op.evaluate, jac, u, d, eps=1e-6)
        assert err <= 1e-6
        assert adjoint_check(jac, rng) < 1e-10

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(2, 8), st.integers(2, 8),
           st.integers(0, 10_000))
    def test_remainder_is_the_coil_product(self, n, h, w, seed):
        # G is bilinear in (u0, c_j) and linear in the rest, so its Taylor
        # remainder is exact: G(u + d) - G(u) - G'(u) d = [(d0 d_j)_j; 0]
        rng = np.random.default_rng(seed)
        op = CoilGradOperator(n, (h, w))
        u, d = (random_like(BlockVector.zeros(op.u_shapes), rng)
                for _ in range(2))
        got = op.evaluate(u + d) - op.evaluate(u) - op.jac(u).apply(d)
        want = BlockVector([d[0] * d[1 + j] for j in range(n)]
                           + [np.zeros((2, h, w))] * (n + 1))
        assert got.shapes == want.shapes
        assert (got - want).norm() <= 1e-12 * want.norm()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(2, 12), st.integers(2, 12),
           st.integers(0, 10_000))
    def test_adjoint_and_jacobian_on_random_layouts(self, n, h, w, seed):
        rng = np.random.default_rng(seed)
        op = CoilGradOperator(n, (h, w))
        u = random_like(BlockVector.zeros(op.u_shapes), rng)
        jac = op.jac(u)
        d = random_like(BlockVector.zeros(op.u_shapes), rng)
        assert adjoint_check(jac, rng) <= 1e-10
        assert fd_jacobian_check(op.evaluate, jac, u, d, eps=1e-6) <= 1e-6
        w = random_like(BlockVector.zeros(op.v_shapes), rng)
        apply_rows, adjoint_rows = coil_jac_rows(u, d, w)
        applied, adjoined = jac.apply(d), jac.adjoint(w)
        assert len(apply_rows) == n and len(adjoined) == n + 1
        for got, want in zip(applied.blocks[:n] + adjoined.blocks,
                             apply_rows + adjoint_rows):
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12),
           st.sampled_from(["real", "complex", "strided"]),
           st.sampled_from([None, 1, 2, 4]), st.booleans(),
           st.integers(0, 10_000))
    def test_normal_is_adjoint_of_apply_bit_for_bit(self, n, h, w, kind,
                                                    band_rows, offset, seed):
        # band_rows forces bands of 1, 2 or 4 rows (uneven where they do
        # not divide h) through the byte budget, None keeps the default;
        # with offset, h and out start 16 bytes past a cache line, where
        # numpy's own large arrays start, and out holds NaN garbage.
        # A band of one pixel in a larger field is left out: numpy's
        # in-place complex multiply takes another path on one element,
        # with other rounding, and BAND_BYTES makes such a band only when
        # W = 1 and H > 9216.
        with pytest.MonkeyPatch.context() as mp:
            if band_rows:
                mp.setattr(padmm.mri, "BAND_BYTES", band_rows * 16 * w)
            bands = padmm.mri.row_bands((h, w))
            assert len(bands) == (-(-h // band_rows) if band_rows else 1)
            assume(h * w == 1 or all((b - a) * w > 1 for a, b in bands))
            rng = np.random.default_rng(seed)
            op = CoilGradOperator(n, (h, w))
            u, d = (BlockVector([signed_zero_field(rng, (h, w), kind)
                                 for _ in range(n + 1)]) for _ in range(2))
            jac = op.jac(u)
        out = BlockVector.zeros(op.u_shapes)
        if offset:
            d, out = (BlockVector([off_line(b) for b in x.blocks])
                      for x in (d, out * np.nan))
        got = jac.normal(d, out)
        want = jac.adjoint(jac.apply(d))
        assert got.shapes == want.shapes == op.u_shapes
        for a, b in zip(got.blocks, want.blocks):
            assert bit_identical(a, b)

    def test_step_size_takes_the_fused_normal(self, monkeypatch):
        # a fallback to adjoint(apply(.)) would reach the refusing maps
        rng = np.random.default_rng(9)
        op = CoilGradOperator(3, (7, 9))
        jac = op.jac(random_like(BlockVector.zeros(op.u_shapes), rng))
        normal_calls, estimates = [], []

        def refuse(x):
            raise AssertionError("power iteration composed apply and adjoint")

        def counted_normal(h, out):
            normal_calls.append(h)
            return jac.normal(h, out)

        def recorded_estimate(*args, **kwargs):
            estimates.append(estimate_opnorm(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(padmm.admm, "estimate_opnorm", recorded_estimate)
        fused = replace(jac, apply=refuse, adjoint=refuse, normal=counted_normal)
        composed = replace(jac, normal=None)
        taus = [Solver(SolverConfig()).step_size(m, None)[0]
                for m in (fused, composed)]
        fast, slow = estimates
        assert len(normal_calls) == fast.iterations > 1
        assert taus[0] == taus[1]
        assert ((fast.value, fast.iterations, fast.converged)
                == (slow.value, slow.iterations, slow.converged))
        for a, b in zip(fast.eigvec.blocks, slow.eigvec.blocks):
            assert bit_identical(a, b)

    def test_power_steps_reuse_two_buffers_and_spare_the_start(self):
        # a power iteration that allocated per step would hand ``normal``
        # a new ``h`` or ``out`` each time; every vector seen is kept
        # alive, so no id can be recycled
        rng = np.random.default_rng(11)
        op = CoilGradOperator(2, (6, 5))
        jac = op.jac(random_like(BlockVector.zeros(op.u_shapes), rng))
        start = random_like(BlockVector.zeros(op.u_shapes), rng)
        before = start.copy()
        seen = []

        def recorded_normal(h, out):
            blocks = out.blocks
            seen.extend((h, out))
            got = jac.normal(h, out)
            assert got is out
            assert all(a is b for a, b in zip(got.blocks, blocks))
            assert not any(np.shares_memory(a, b)
                           for a in h.blocks for b in blocks)
            return got

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            est = estimate_opnorm(replace(jac, normal=recorded_normal), start,
                                  tol=0.0, max_iter=24)
        assert est.iterations == len(seen) // 2 == 24 and not est.converged
        assert len({id(v) for v in seen}) <= 2
        assert len({tuple(map(id, v.blocks)) for v in seen}) <= 2
        for a, b in zip(start.blocks, before.blocks):
            assert bit_identical(a, b)
        assert not any(np.shares_memory(a, b) for a in est.eigvec.blocks
                       for b in start.blocks)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12),
           st.sampled_from(["real", "complex", "strided"]),
           st.integers(0, 10_000))
    def test_normal_into_a_stale_out_matches_a_fresh_one(self, n, h, w, kind,
                                                         seed):
        # the h0 row accumulates, so it must restart from +0 on each call
        rng = np.random.default_rng(seed)
        op = CoilGradOperator(n, (h, w))
        u, d1, d2 = (BlockVector([signed_zero_field(rng, (h, w), kind)
                                  for _ in range(n + 1)]) for _ in range(3))
        jac = op.jac(u)
        out = BlockVector([np.full((h, w), np.nan + 1j * -0.0)
                           for _ in range(n + 1)])
        for d in (d1, d2):
            got = jac.normal(d, out=out)
            assert got is out
            fresh = jac.normal(d, BlockVector.zeros(op.u_shapes))
            for a, b in zip(got.blocks, fresh.blocks):
                assert bit_identical(a, b)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(1, 8), st.integers(1, 8),
           st.sampled_from(["real", "complex", "strided"]),
           st.sampled_from(["u", "a", "b"]), st.integers(0, 10_000),
           st.sampled_from([complex("inf"), complex(0.0, -float("inf")),
                            complex("nan"), complex(-float("inf"), -0.0)]),
           st.integers(0, 10_000))
    def test_adjoint_extrapolated_is_adjoint_of_extrapolate(
            self, n, h, w, kind, where, at, value, seed):
        rng = np.random.default_rng(seed)
        op = CoilGradOperator(n, (h, w))
        u = BlockVector([signed_zero_field(rng, s, kind) for s in op.u_shapes])
        a, b = (BlockVector([signed_zero_field(rng, s, kind)
                             for s in op.v_shapes]) for _ in range(2))
        vec = {"u": u, "a": a, "b": b}[where]
        block = vec.blocks[at % len(vec)]
        block.flat[at % block.size] = value
        before = a.copy(), b.copy()
        jac = op.jac(u)
        with np.errstate(invalid="ignore", over="ignore"):
            got = jac.adjoint_extrapolated(a, b)
            kept = got.copy()
            want = jac.adjoint(extrapolate(a, b))
            # fresh arrays: a second call does not write into the first's
            jac.adjoint_extrapolated(b, a)
        assert got.shapes == want.shapes == op.u_shapes
        for x, y, z in zip(got.blocks, want.blocks, kept.blocks):
            assert same_bits(x, y) and same_bits(x, z)
            assert not any(np.shares_memory(x, v)
                           for v in a.blocks + b.blocks + u.blocks)
        for now, then in zip(a.blocks + b.blocks,
                             before[0].blocks + before[1].blocks):
            assert same_bits(now, then)

    def test_adjoint_extrapolated_never_stores_the_extrapolation(self):
        # one coil block in a scratch field, one gradient block in both,
        # and grad*'s own output: about 1.1 fields above the 5-field
        # output; a stored 2a - b would add its 14 fields, fresh blocks
        # per call at least 3
        rng = np.random.default_rng(12)
        op = CoilGradOperator(4, (48, 48))
        u = random_like(BlockVector.zeros(op.u_shapes), rng)
        a, b = (random_like(BlockVector.zeros(op.v_shapes), rng)
                for _ in range(2))
        jac = op.jac(u)
        field = 48 * 48 * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = jac.adjoint_extrapolated(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        out = sum(x.nbytes for x in got.blocks)
        assert out == 5 * field
        assert peak <= out + 2 * field


class TestProblemValidation:
    def test_scalar_weights_broadcast_per_coil(self):
        p = small_problem(n_coils=3)
        assert p.lam == [0.5] * 3
        assert p.alpha == [0.9] * 3

    def test_nonbinary_mask_rejected(self):
        p = small_problem()
        with pytest.raises(ValueError):
            MriProblem(mask=0.5 * np.ones((6, 6)), data=p.data,
                       lam=p.lam, alpha0=p.alpha0, alpha=p.alpha)

    def test_data_off_mask_rejected(self):
        p = small_problem()
        bad = [np.ones((6, 6), dtype=complex) for _ in p.data]
        with pytest.raises(ValueError):
            MriProblem(mask=p.mask, data=bad, lam=p.lam,
                       alpha0=p.alpha0, alpha=p.alpha)

    @pytest.mark.parametrize("value", [complex("nan"), complex("inf"),
                                       complex(0.0, -float("inf"))])
    @pytest.mark.parametrize("sampled", [True, False])
    def test_non_finite_data_rejected(self, value, sampled):
        # NaN off the mask used to pass: abs(nan * 0.0) > 0 is False
        p = small_problem()
        bad = [f.copy() for f in p.data]
        where = np.argwhere(p.mask == (1.0 if sampled else 0.0))[-1]
        bad[1][tuple(where)] = value
        with pytest.raises(ValueError, match="k-space data must be finite"):
            MriProblem(mask=p.mask, data=bad, lam=p.lam,
                       alpha0=p.alpha0, alpha=p.alpha)

    def test_negative_weight_rejected(self):
        p = small_problem()
        with pytest.raises(ValueError):
            MriProblem(mask=p.mask, data=p.data, lam=-1.0,
                       alpha0=p.alpha0, alpha=p.alpha)

    @pytest.mark.parametrize("name", ["lam", "alpha0", "alpha"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, name, value):
        p = small_problem()
        weights = {"lam": p.lam, "alpha0": p.alpha0, "alpha": p.alpha}
        with pytest.raises(ValueError, match="finite"):
            MriProblem(mask=p.mask, data=p.data, **{**weights, name: value})

    @pytest.mark.parametrize("bad", [
        {"lam": float("nan")}, {"alpha": -1.0}, {"alpha0": float("inf")},
        {"lam": [0.5, -0.5]}, {"alpha": [0.9] * 3},
    ])
    def test_config_and_problem_reject_weights_alike(self, bad):
        # one rule, so `simulate` already rejects what `reconstruct` would
        p = small_problem(n_coils=2)
        weights = {"lam": 0.5, "alpha0": 0.1, "alpha": 0.9, **bad}
        with pytest.raises(ValueError) as config:
            ExperimentConfig(coils=2, **weights)
        with pytest.raises(ValueError) as problem:
            MriProblem(mask=p.mask, data=p.data, **weights)
        assert str(config.value) == str(problem.value)
        assert str(problem.value).startswith("weights.")


class TestAssembly:
    def test_prox_block_routing(self):
        p = small_problem(n_coils=2)
        prox = assemble_prox_j(p)
        kinds = [type(c) for c in prox.children]
        assert kinds == [FourierFidelityProx, FourierFidelityProx,
                         GroupShrinkProx, GlobalShrinkProx, GlobalShrinkProx]
        assert prox.children[2].alpha == p.alpha0

    def test_fidelity_resolvents_keep_the_problem_mask(self):
        # no per-coil copy: each fidelity resolvent holds the checked mask
        p = small_problem(n_coils=3)
        fidelity = [c for c in separable_problem(p).prox_j.children
                    if isinstance(c, FourierFidelityProx)]
        assert len(fidelity) == 3
        assert all(np.shares_memory(c.mask, p.mask) for c in fidelity)

    def test_initial_unknowns_all_ones(self):
        p = small_problem(n_coils=3)
        u0 = initial_unknowns(p)
        assert len(u0) == 4
        for b in u0.blocks:
            assert np.all(b == 1.0)

    def test_start_vectors_share_one_read_only_array_per_shape(self):
        def root(a):
            while a.base is not None:
                a = a.base
            return a

        sp = separable_problem(small_problem(n_coils=3))
        for start in (sp.u0, sp.mu0):
            assert (len({id(root(b)) for b in start.blocks})
                    == len(set(start.shapes)))
            for b in start.blocks:
                assert not b.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    b *= 2
        assert len(set(sp.mu0.shapes)) == 2

    def test_building_allocates_one_array_per_start_shape(self):
        # u0's field, mu0's field and mu0's (2, H, W) gradient field, the
        # bytes of 4 fields, and a few KiB of resolvent objects; one array
        # per block would be 5 + 4 + 5 * 2 = 19 fields
        p = small_problem(n_coils=4, size=48)
        field = 48 * 48 * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            separable_problem(p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * field + 16 * 1024

    def test_separable_problem_wiring(self):
        p = small_problem(n_coils=2)
        sp = separable_problem(p)
        assert isinstance(sp.prox_h, IdentityProx)
        assert sp.mu0.norm() == 0
        assert sp.u0.shapes == sp.g.u_shapes
        assert sp.mu0.shapes == sp.g.v_shapes
