"""Nonlinear operator constraints F(u, v) = c and their Jacobians.

Jacobians are exposed as matrix-free apply/adjoint pairs.  The scope is
restricted to constraints that are holomorphic / multilinear in each
block, so the block derivatives are literal complex-linear maps and no
Wirtinger calculus is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blocks import BlockVector, random_like


@dataclass(frozen=True)
class LinearMap:
    """Matrix-free linear map between block vectors."""

    apply: Callable[[BlockVector], BlockVector]
    adjoint: Callable[[BlockVector], BlockVector]
    domain_shapes: tuple
    codomain_shapes: tuple

    def materialize(self) -> np.ndarray:
        """Dense matrix of the map; small-problem test oracle only."""
        n = sum(int(np.prod(s)) for s in self.domain_shapes)
        if n > 8 * 8 * 8:
            raise ValueError("dense materialization is restricted to tiny maps")
        cols = []
        for k in range(n):
            e = np.zeros(n, dtype=np.complex128)
            e[k] = 1.0
            x = BlockVector.from_ravel(e, self.domain_shapes)
            cols.append(self.apply(x).ravel())
        return np.stack(cols, axis=1)


class NonlinearConstraint:
    """Constraint F(u, v) = c with blockwise Jacobian apply/adjoint.

    Subclasses implement ``evaluate``, ``jac_u`` and ``jac_v``; ``target``
    is the right-hand side c.
    """

    def __init__(self, target: BlockVector):
        self.target = target

    def evaluate(self, u: BlockVector, v: BlockVector) -> BlockVector:
        raise NotImplementedError

    def jac_u(self, u: BlockVector, v: BlockVector) -> LinearMap:
        raise NotImplementedError

    def jac_v(self, u: BlockVector, v: BlockVector) -> LinearMap:
        raise NotImplementedError


class CallableConstraint(NonlinearConstraint):
    """Constraint assembled from plain callables (tests and toys)."""

    def __init__(self, evaluate, jac_u, jac_v, target):
        super().__init__(target)
        self._evaluate = evaluate
        self._jac_u = jac_u
        self._jac_v = jac_v

    def evaluate(self, u, v):
        return self._evaluate(u, v)

    def jac_u(self, u, v):
        return self._jac_u(u, v)

    def jac_v(self, u, v):
        return self._jac_v(u, v)


def fd_jacobian_check(
    op: Callable[[BlockVector], BlockVector],
    jac: LinearMap,
    base: BlockVector,
    direction: BlockVector,
    eps: float = 1e-6,
) -> float:
    """Relative error of ``jac`` against a central finite difference.

    Independent oracle: ||(op(base + eps d) - op(base - eps d)) / (2 eps)
    - J d|| / max(||J d||, 1e-300).
    """
    fwd = op(base + eps * direction)
    bwd = op(base - eps * direction)
    fd = (1.0 / (2.0 * eps)) * (fwd - bwd)
    jd = jac.apply(direction)
    denom = max(jd.norm(), 1e-300)
    return (fd - jd).norm() / denom


def adjoint_check(jac: LinearMap, rng: np.random.Generator) -> float:
    """Relative error of <J h, w> = <h, J* w> on random directions."""
    h = random_like(BlockVector.zeros(jac.domain_shapes), rng)
    w = random_like(BlockVector.zeros(jac.codomain_shapes), rng)
    lhs = jac.apply(h).inner(w)
    rhs = h.inner(jac.adjoint(w))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
