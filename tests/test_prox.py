import numpy as np
import pytest

from padmm.blocks import BlockVector, random_like
from padmm.fields import dft2, idft2
from padmm.prox import (FourierFidelityProx, GlobalShrinkProx, GroupShrinkProx,
                        IdentityProx, SeparableSumProx, conjugate_apply)

from oracles import QuadraticAnchorProx, random_field, random_gradient


def fidelity_instance(rng, lam=0.7, h=4, w=4):
    mask = (rng.uniform(size=(h, w)) < 0.5).astype(float)
    mask[0, 0] = 1.0
    f = mask * random_field(rng, h, w)
    return FourierFidelityProx(lam, mask, f)


def prox_objective(prox, x, w, tau):
    return 0.5 * np.sum(np.abs(np.asarray(x) - np.asarray(w)) ** 2) \
        + tau * prox.penalty(x)


PROX_CASES = [
    ("identity", lambda rng: (IdentityProx(), random_field(rng))),
    ("fourier", lambda rng: (fidelity_instance(rng), random_field(rng))),
    ("group", lambda rng: (GroupShrinkProx(0.8), random_gradient(rng))),
    ("global", lambda rng: (GlobalShrinkProx(0.8), random_gradient(rng))),
    ("anchor", lambda rng: (QuadraticAnchorProx(random_field(rng), 1.3),
                            random_field(rng))),
]


class TestIdentity:
    def test_returns_argument_bit_exact(self):
        rng = np.random.default_rng(0)
        w = random_field(rng)
        out = IdentityProx().apply(w, 0.7)
        assert out is w

    def test_zero(self):
        z = np.zeros((3, 3), dtype=complex)
        assert np.all(IdentityProx().apply(z, 1.0) == 0)


class TestFourierFidelity:
    def test_zero_weight_returns_argument(self):
        rng = np.random.default_rng(1)
        prox = FourierFidelityProx(0.0, np.ones((4, 4)), np.zeros((4, 4)))
        w = random_field(rng)
        assert np.allclose(prox.apply(w, 0.9), w, atol=1e-12)

    def test_hard_constraint_limit_full_sampling(self):
        rng = np.random.default_rng(2)
        mask = np.ones((4, 4))
        f = random_field(rng)
        prox = FourierFidelityProx(1.0, mask, f)
        out = prox.apply(random_field(rng), 1e8)
        assert np.allclose(out, idft2(f), atol=1e-6)

    def test_matches_conjugate_gradient_solve(self):
        # independent quadratic-solve oracle on a 4x4 instance
        from scipy.sparse.linalg import LinearOperator, cg
        rng = np.random.default_rng(3)
        prox = fidelity_instance(rng)
        w = random_field(rng)
        tau = 0.37
        s = tau * prox.lam

        def normal(xflat):
            x = xflat.reshape(4, 4)
            return (x + s * idft2(prox.mask * dft2(x))).ravel()

        rhs = (w + s * idft2(prox.data)).ravel()
        op = LinearOperator((16, 16), matvec=normal, dtype=complex)
        sol, info = cg(op, rhs, rtol=1e-13, maxiter=500)
        assert info == 0
        out = prox.apply(w, tau)
        assert np.linalg.norm(out.ravel() - sol) <= 1e-8 * np.linalg.norm(sol)

    def test_rejects_nonbinary_mask(self):
        with pytest.raises(ValueError):
            FourierFidelityProx(1.0, 0.5 * np.ones((2, 2)), np.zeros((2, 2)))


class TestGroupShrink:
    def test_zero_field(self):
        out = GroupShrinkProx(1.0).apply(np.zeros((2, 3, 3)), 1.0)
        assert np.all(out == 0)

    def test_three_four_pixel(self):
        g = np.zeros((2, 1, 1))
        g[0, 0, 0], g[1, 0, 0] = 3.0, 4.0
        out = GroupShrinkProx(1.0).apply(g, 1.0)
        assert np.allclose(out[:, 0, 0], [2.4, 3.2], atol=1e-12)

    def test_deadzone_maps_to_zero(self):
        rng = np.random.default_rng(4)
        g = 0.1 * random_gradient(rng)
        out = GroupShrinkProx(1.0).apply(g, 1.0)
        assert np.all(out == 0)

    def test_grid_search_optimality_single_pixel(self):
        # scan scalar multiples along the candidate direction
        g = np.zeros((2, 1, 1))
        g[0, 0, 0], g[1, 0, 0] = 3.0, 4.0
        prox = GroupShrinkProx(1.0)
        out = prox.apply(g, 1.0)
        best = prox_objective(prox, out, g, 1.0)
        for t in np.linspace(0.0, 1.2, 241):
            cand = t * g
            assert prox_objective(prox, cand, g, 1.0) >= best - 1e-12


class TestGlobalShrink:
    def test_zero_field(self):
        assert np.all(GlobalShrinkProx(2.0).apply(np.zeros((2, 3, 3)), 1.0) == 0)

    def test_norm_five_shrinks_by_four_fifths(self):
        g = np.zeros((2, 1, 1))
        g[0, 0, 0], g[1, 0, 0] = 3.0, 4.0
        out = GlobalShrinkProx(1.0).apply(g, 1.0)
        assert np.allclose(out, 0.8 * g, atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(5)
        g = random_gradient(rng)
        assert np.array_equal(GlobalShrinkProx(0.0).apply(g, 1.0), g)

    def test_subgradient_optimality(self):
        # x + tau*alpha*x/||x|| must equal w at the shrunk point
        rng = np.random.default_rng(6)
        g = random_gradient(rng)
        prox = GlobalShrinkProx(0.9)
        tau = 0.7
        x = prox.apply(g, tau)
        r = np.linalg.norm(x.ravel())
        assert r > 0
        recon = x + tau * prox.alpha * x / r
        assert np.allclose(recon, g, atol=1e-10)


class TestSeparableSum:
    def test_blockwise_routing(self):
        rng = np.random.default_rng(7)
        children = [GroupShrinkProx(0.5), GlobalShrinkProx(0.3)]
        prox = SeparableSumProx(children)
        v = BlockVector([random_gradient(rng), random_gradient(rng)])
        out = prox.apply(v, 0.9)
        assert np.array_equal(out[0], children[0].apply(v[0], 0.9))
        assert np.array_equal(out[1], children[1].apply(v[1], 0.9))

    def test_penalty_is_sum(self):
        rng = np.random.default_rng(8)
        children = [GroupShrinkProx(0.5), GlobalShrinkProx(0.3)]
        prox = SeparableSumProx(children)
        v = BlockVector([random_gradient(rng), random_gradient(rng)])
        assert np.isclose(prox.penalty(v),
                          children[0].penalty(v[0]) + children[1].penalty(v[1]))

    def test_block_count_mismatch(self):
        with pytest.raises(ValueError):
            SeparableSumProx([IdentityProx()]).apply(
                BlockVector([np.zeros((2, 2)), np.zeros((2, 2))]), 1.0)


class TestMoreau:
    @pytest.mark.parametrize("name,make", PROX_CASES)
    @pytest.mark.parametrize("delta", [0.3, 1.0, 4.2])
    def test_moreau_identity(self, name, make, delta):
        rng = np.random.default_rng(9)
        prox, b = make(rng)
        lhs = prox.apply(b, 1.0 / delta) \
            + (1.0 / delta) * conjugate_apply(prox, delta * b, delta)
        assert np.allclose(lhs, b, atol=1e-12)

    def test_conjugate_of_zero_projects_to_zero(self):
        rng = np.random.default_rng(10)
        w = random_field(rng)
        out = conjugate_apply(IdentityProx(), w, 2.0)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_group_conjugate_is_ball_projection(self):
        rng = np.random.default_rng(11)
        alpha = 0.8
        g = random_gradient(rng)
        out = conjugate_apply(GroupShrinkProx(alpha), g, 1.7)
        mag = np.sqrt(np.sum(np.abs(out) ** 2, axis=0))
        assert np.all(mag <= alpha + 1e-12)
        # pixels inside the ball are untouched
        mag_in = np.sqrt(np.sum(np.abs(g) ** 2, axis=0))
        inside = mag_in <= alpha
        assert np.allclose(out[:, inside], g[:, inside], atol=1e-12)


class TestProxProperties:
    @pytest.mark.parametrize("name,make", PROX_CASES)
    def test_firm_nonexpansiveness(self, name, make):
        rng = np.random.default_rng(12)
        prox, a = make(rng)
        b = a + 0.5 * np.asarray(random_field(rng, *np.shape(a)[-2:]) if np.ndim(a) == 2
                                 else random_gradient(rng))
        tau = 0.8
        pa, pb = np.asarray(prox.apply(a, tau)), np.asarray(prox.apply(b, tau))
        lhs = np.sum(np.abs(pa - pb) ** 2)
        rhs = np.real(np.sum((pa - pb) * np.conj(np.asarray(a) - np.asarray(b))))
        assert lhs <= rhs + 1e-10

    @pytest.mark.parametrize("name,make", PROX_CASES)
    def test_random_perturbation_optimality(self, name, make):
        rng = np.random.default_rng(13)
        prox, w = make(rng)
        tau = 0.6
        x = np.asarray(prox.apply(w, tau))
        base = prox_objective(prox, x, w, tau)
        for _ in range(100):
            for eta in (1e-3, 1e-2):
                d = (rng.standard_normal(x.shape)
                     + 1j * rng.standard_normal(x.shape))
                d /= np.linalg.norm(d.ravel())
                cand = x + eta * d
                assert prox_objective(prox, cand, w, tau) >= base - 1e-12
