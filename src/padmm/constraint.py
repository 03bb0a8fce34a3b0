"""Nonlinear operator constraints F(u, v) = c and their Jacobians.

Jacobians are exposed as matrix-free apply/adjoint pairs.  The scope is
restricted to constraints that are holomorphic / multilinear in each
block, so the block derivatives are literal complex-linear maps and no
Wirtinger calculus is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .blocks import BlockVector


@dataclass(frozen=True)
class LinearMap:
    """Matrix-free linear map between block vectors."""

    apply: Callable[[BlockVector], BlockVector]
    adjoint: Callable[[BlockVector], BlockVector]
    domain_shapes: tuple
    codomain_shapes: tuple


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
