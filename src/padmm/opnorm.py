"""Operator-norm estimation by power iteration on A* A."""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .blocks import BlockVector
from .constraint import LinearMap


class OpNormEstimate(NamedTuple):
    value: float
    eigvec: BlockVector
    iterations: int
    converged: bool


def estimate_opnorm(linmap: LinearMap, start: BlockVector, tol: float,
                    max_iter: int) -> OpNormEstimate:
    """Spectral norm of a matrix-free map via power iteration on A* A.

    A* A is ``linmap.normal`` when the map supplies it, and
    ``adjoint(apply(.))`` otherwise.  Each step writes A* A x into a
    spare vector and rescales it in place, then the two swap roles, so
    a map whose ``normal`` honours ``out`` allocates nothing per step.
    Both vectors start on cache lines (:func:`blocks.cache_aligned`), so
    every A* A product is written to aligned memory.
    ``start`` is the initial vector; pass a seeded random vector for a
    deterministic fresh estimate, or the previous eigenvector to warm
    start.  ``start`` is never written to, and the returned vector
    belongs to the caller, so callers can chain warm starts.
    """
    normal = linmap.normal or (lambda h, out: linmap.adjoint(linmap.apply(h)))

    nx = start.norm()
    if nx == 0:
        raise ValueError("start vector must be nonzero")
    x = (1.0 / nx) * start
    spare = BlockVector.zeros(x.shapes)

    lam_old = float("inf")
    lam = 0.0
    it = 0
    change = float("inf")
    for it in range(1, max_iter + 1):
        y = normal(x, out=spare)
        lam = y.norm()
        if lam == 0.0:
            return OpNormEstimate(0.0, x, it, True)
        change = abs(lam - lam_old) / lam
        # the same product as (1 / lam) * y, without a new vector
        scale = 1.0 / lam
        for b in y.blocks:
            np.multiply(scale, b, out=b)
        x, spare = y, x
        if change <= tol:
            return OpNormEstimate(lam ** 0.5, x, it, True)
        lam_old = lam
    # a mild drift past tol is harmless for step-size selection (the
    # theta < 1 margin absorbs it); only flag genuinely poor estimates
    if change > max(100 * tol, 1e-3):
        warnings.warn(
            f"power iteration did not converge in {max_iter} iterations "
            f"(relative change {change:.2e}, tol {tol:.2e})",
            RuntimeWarning,
        )
    return OpNormEstimate(lam ** 0.5, x, it, False)

