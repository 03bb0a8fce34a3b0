import numpy as np
import pytest

from padmm.blocks import BlockVector
from padmm.constraint import LinearMap
from padmm.opnorm import estimate_opnorm

from oracles import dense_map, grad_map, materialize, random_like


def scaled_identity(scale, shapes):
    return LinearMap(lambda x: scale * x, lambda x: scale * x, shapes, shapes)


def seeded(shapes, seed):
    """The solver's fresh power-iteration start for ``seed``."""
    return random_like(BlockVector.zeros(shapes), np.random.default_rng(seed))


def test_identity_norm_is_one():
    lm = dense_map(np.eye(7, dtype=complex))
    start = seeded(lm.domain_shapes, 0)
    est = estimate_opnorm(lm, start, tol=1e-10, max_iter=500)
    assert abs(est.value - 1.0) < 1e-12
    assert est.converged


def test_diagonal_dominant_eigenvalue():
    lm = dense_map(np.diag([1.0, 2.0, 5.0]).astype(complex))
    start = seeded(lm.domain_shapes, 3)
    est = estimate_opnorm(lm, start, tol=1e-12, max_iter=500)
    assert abs(est.value - 5.0) < 1e-8


def test_gradient_norm_matches_dense_svd():
    lm = grad_map(16, 16)
    exact = np.linalg.svd(materialize(lm), compute_uv=False)[0]
    start = seeded(lm.domain_shapes, 0)
    est = estimate_opnorm(lm, start, tol=1e-12, max_iter=2000)
    assert abs(est.value - exact) < 1e-4


def test_zero_operator():
    dom = ((4,),)
    start = seeded(dom, 1)
    est = estimate_opnorm(scaled_identity(0.0, dom), start, tol=1e-10,
                          max_iter=500)
    assert est.value == 0.0
    assert est.converged


def test_zero_start_rejected():
    with pytest.raises(ValueError):
        estimate_opnorm(scaled_identity(1.0, ((3,),)),
                        BlockVector.zeros(((3,),)), tol=1e-10, max_iter=500)


def test_warm_start_converges_faster():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    lm = dense_map(m)
    cold = estimate_opnorm(lm, seeded(lm.domain_shapes, 0),
                           tol=1e-10, max_iter=5000)
    warm = estimate_opnorm(lm, cold.eigvec, tol=1e-10, max_iter=5000)
    assert warm.iterations <= cold.iterations
    assert abs(warm.value - cold.value) < 1e-6 * cold.value


def test_warns_when_budget_exhausted():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((30, 30))
    lm = dense_map(m.astype(complex))
    with pytest.warns(RuntimeWarning):
        est = estimate_opnorm(lm, seeded(lm.domain_shapes, 0),
                              tol=1e-14, max_iter=1)
    assert not est.converged
