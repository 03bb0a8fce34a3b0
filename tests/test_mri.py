import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padmm.blocks import BlockVector, random_like
from padmm.fields import grad
from padmm.mri import (CoilGradOperator, MriProblem, assemble_prox_j,
                       coil_jacobian, coil_op, initial_unknowns,
                       separable_problem)
from padmm.prox import (FourierFidelityProx, GlobalShrinkProx, GroupShrinkProx,
                        IdentityProx)

from oracles import adjoint_check, fd_jacobian_check


def small_problem(n_coils=2, size=6, seed=0):
    rng = np.random.default_rng(seed)
    mask = (rng.uniform(size=(size, size)) < 0.5).astype(float)
    mask[0, 0] = 1.0
    data = [mask * (rng.standard_normal((size, size))
                    + 1j * rng.standard_normal((size, size)))
            for _ in range(n_coils)]
    return MriProblem(mask=mask, data=data, lam=0.5, alpha0=0.1,
                      alpha=0.9)


class TestCoilOperator:
    def test_hand_computed_products(self):
        u0 = np.array([[1.0, 1j], [2.0, 0.0]])
        c = np.array([[1.0, 1.0], [0.0, 3.0]])
        out = coil_op(u0, [c])
        assert np.array_equal(out[0], np.array([[1.0, 1j], [0.0, 0.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coil_op(np.zeros((2, 2)), [np.zeros((3, 3))])

    def test_jacobian_finite_differences(self):
        rng = np.random.default_rng(1)
        shape = (5, 5)
        u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coils = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                 for _ in range(3)]
        jac = coil_jacobian(u0, coils)
        base = BlockVector([u0] + coils)
        d = random_like(BlockVector.zeros(base.shapes), rng)
        err = fd_jacobian_check(
            lambda u: BlockVector(coil_op(u[0], list(u.blocks[1:]))),
            jac, base, d, eps=1e-6,
        )
        assert err <= 1e-6

    def test_jacobian_adjoint(self):
        rng = np.random.default_rng(2)
        shape = (4, 4)
        u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coils = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                 for _ in range(2)]
        assert adjoint_check(coil_jacobian(u0, coils), rng) < 1e-10


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


class TestAssembly:
    def test_constraint_feasible_at_lifted_point(self):
        rng = np.random.default_rng(5)
        p = small_problem()
        F = separable_problem(p).as_admm_problem().constraint
        u = random_like(BlockVector.zeros(F.g.u_shapes), rng)
        v = F.g.evaluate(u)
        assert (F.evaluate(u, v)).norm() == 0
        assert F.jac_v_is_neg_identity

    def test_prox_block_routing(self):
        p = small_problem(n_coils=2)
        prox = assemble_prox_j(p)
        kinds = [type(c) for c in prox.children]
        assert kinds == [FourierFidelityProx, FourierFidelityProx,
                         GroupShrinkProx, GlobalShrinkProx, GlobalShrinkProx]
        assert prox.children[2].alpha == p.alpha0

    def test_initial_unknowns_all_ones(self):
        p = small_problem(n_coils=3)
        u0 = initial_unknowns(p)
        assert len(u0) == 4
        for b in u0.blocks:
            assert np.all(b == 1.0)

    def test_separable_problem_wiring(self):
        p = small_problem(n_coils=2)
        sp = separable_problem(p)
        assert isinstance(sp.prox_h, IdentityProx)
        assert sp.mu0.norm() == 0
        assert sp.u0.shapes == sp.g.u_shapes
        assert sp.mu0.shapes == sp.g.v_shapes
