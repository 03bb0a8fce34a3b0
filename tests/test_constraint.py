import numpy as np
import pytest

from padmm.blocks import BlockVector, random_like
from padmm.constraint import LinearMap

from oracles import (CallableConstraint, adjoint_check, affine_constraint,
                     fd_jacobian_check, materialize)


@pytest.fixture
def affine():
    """F(u, v) = K u - v with a fixed random 6x6 K."""
    rng = np.random.default_rng(0)
    k = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    dom = ((6,),)
    c = random_like(BlockVector.zeros(dom), rng)
    return affine_constraint(k, c), k, dom


@pytest.fixture
def bilinear():
    """F(u, v) = u0 * u1 (pointwise product, two blocks) with c = 0."""
    dom = ((4, 4), (4, 4))
    cod = ((4, 4),)

    def jac_u(u, v):
        u0, u1 = u[0].copy(), u[1].copy()
        return LinearMap(
            apply=lambda h: BlockVector([h[0] * u1 + u0 * h[1]]),
            adjoint=lambda w: BlockVector([np.conj(u1) * w[0],
                                           np.conj(u0) * w[0]]),
            domain_shapes=dom, codomain_shapes=cod,
        )

    F = CallableConstraint(
        evaluate=lambda u, v: BlockVector([u[0] * u[1]]) - v,
        jac_u=jac_u,
        jac_v=lambda u, v: LinearMap(lambda h: -h, lambda w: -w, cod, cod),
        target=BlockVector.zeros(cod),
    )
    return F, dom, cod


class TestJacobianChecks:
    def test_linear_map_fd_error_near_zero(self, affine):
        F, _, dom = affine
        rng = np.random.default_rng(5)
        base = random_like(BlockVector.zeros(dom), rng)
        v = random_like(BlockVector.zeros(dom), rng)
        d = random_like(BlockVector.zeros(dom), rng)
        err = fd_jacobian_check(lambda u: F.evaluate(u, v),
                                F.jac_u(base, v), base, d)
        assert err < 1e-8

    def test_bilinear_fd_error(self, bilinear):
        F, dom, _ = bilinear
        rng = np.random.default_rng(6)
        base = random_like(BlockVector.zeros(dom), rng)
        v = random_like(BlockVector.zeros(F.target.shapes), rng)
        d = random_like(BlockVector.zeros(dom), rng)
        err = fd_jacobian_check(lambda u: F.evaluate(u, v),
                                F.jac_u(base, v), base, d, eps=1e-6)
        assert err <= 1e-6

    def test_adjoint_identity(self, bilinear):
        F, dom, _ = bilinear
        rng = np.random.default_rng(7)
        base = random_like(BlockVector.zeros(dom), rng)
        v = random_like(BlockVector.zeros(F.target.shapes), rng)
        assert adjoint_check(F.jac_u(base, v), rng) < 1e-10


class TestMaterialize:
    def test_dense_matrix_matches_apply(self, affine):
        F, k, dom = affine
        rng = np.random.default_rng(8)
        v = random_like(BlockVector.zeros(dom), rng)
        u = random_like(BlockVector.zeros(dom), rng)
        dense = materialize(F.jac_u(u, v))
        assert np.allclose(dense, k, atol=1e-14)
