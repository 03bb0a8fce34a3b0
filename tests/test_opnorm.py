import numpy as np
import pytest

from padmm.blocks import BlockVector
from padmm.opnorm import estimate_opnorm, fresh_start

from oracles import dense_map, grad_map, materialize


def matrix_ops(m):
    lm = dense_map(m)
    return lm.apply, lm.adjoint, lm.domain_shapes


def test_identity_norm_is_one():
    apply, adjoint, dom = matrix_ops(np.eye(7, dtype=complex))
    start = fresh_start(BlockVector.zeros(dom), 0)
    est = estimate_opnorm(apply, adjoint, start)
    assert abs(est.value - 1.0) < 1e-12
    assert est.converged


def test_diagonal_dominant_eigenvalue():
    apply, adjoint, dom = matrix_ops(np.diag([1.0, 2.0, 5.0]).astype(complex))
    start = fresh_start(BlockVector.zeros(dom), 3)
    est = estimate_opnorm(apply, adjoint, start, tol=1e-12)
    assert abs(est.value - 5.0) < 1e-8


def test_gradient_norm_matches_dense_svd():
    lm = grad_map(16, 16)
    exact = np.linalg.svd(materialize(lm), compute_uv=False)[0]
    start = fresh_start(BlockVector.zeros(lm.domain_shapes), 0)
    est = estimate_opnorm(lm.apply, lm.adjoint, start,
                          tol=1e-12, max_iter=2000)
    assert abs(est.value - exact) < 1e-4


def test_zero_operator():
    dom = ((4,),)
    start = fresh_start(BlockVector.zeros(dom), 1)
    est = estimate_opnorm(lambda x: 0.0 * x, lambda x: 0.0 * x, start)
    assert est.value == 0.0
    assert est.converged


def test_zero_start_rejected():
    with pytest.raises(ValueError):
        estimate_opnorm(lambda x: x, lambda x: x, BlockVector.zeros(((3,),)))


def test_warm_start_converges_faster():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    apply, adjoint, dom = matrix_ops(m)
    cold = estimate_opnorm(apply, adjoint,
                           fresh_start(BlockVector.zeros(dom), 0),
                           tol=1e-10, max_iter=5000)
    warm = estimate_opnorm(apply, adjoint, cold.eigvec,
                           tol=1e-10, max_iter=5000)
    assert warm.iterations <= cold.iterations
    assert abs(warm.value - cold.value) < 1e-6 * cold.value


def test_warns_when_budget_exhausted():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((30, 30))
    apply, adjoint, dom = matrix_ops(m.astype(complex))
    with pytest.warns(RuntimeWarning):
        est = estimate_opnorm(apply, adjoint,
                              fresh_start(BlockVector.zeros(dom), 0),
                              tol=1e-14, max_iter=1)
    assert not est.converged
