"""Nonlinear operator constraints F(u, v) = c and their Jacobians.

Jacobians are exposed as matrix-free apply/adjoint pairs.  The scope is
restricted to constraints that are holomorphic / multilinear in each
block, so the block derivatives are literal complex-linear maps and no
Wirtinger calculus is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .blocks import BlockVector


@dataclass(frozen=True)
class LinearMap:
    """Matrix-free linear map between block vectors.

    ``apply`` and ``adjoint`` return a vector the caller may overwrite:
    fresh arrays, or the argument itself (an identity may hand it back),
    never an array the map keeps.

    ``normal``, when set, is ``normal(h, out)`` -> A* A h computed
    directly; it must agree with ``adjoint(apply(h))``.  ``out`` has the
    domain layout and never overlaps ``h``; the map writes the result
    into it and returns it, or ignores it and returns a fresh vector.
    Power iteration uses it in place of the composition.
    """

    apply: Callable[[BlockVector], BlockVector]
    adjoint: Callable[[BlockVector], BlockVector]
    domain_shapes: tuple
    codomain_shapes: tuple
    normal: Optional[Callable[[BlockVector, BlockVector], BlockVector]] = None


class NonlinearConstraint:
    """Constraint F(u, v) = c with blockwise Jacobian apply/adjoint.

    Subclasses implement ``evaluate``, ``jac_u`` and ``jac_v``; ``target``
    is the right-hand side c.  ``partial(u)`` is v -> F(u, v); a subclass
    overrides it to compute the part that depends on u alone once.  Like
    ``evaluate``, it returns a vector the caller may overwrite: fresh
    arrays, or an argument itself, never an array the constraint keeps.  A
    subclass whose v-Jacobian is -I at every base point sets
    ``jac_v_is_neg_identity``, so the ADMM takes the exact v-minimisation.
    """

    jac_v_is_neg_identity = False

    def __init__(self, target: BlockVector):
        self.target = target

    def evaluate(self, u: BlockVector, v: BlockVector) -> BlockVector:
        raise NotImplementedError

    def partial(self, u: BlockVector) -> Callable[[BlockVector], BlockVector]:
        return lambda v: self.evaluate(u, v)

    def jac_u(self, u: BlockVector, v: BlockVector) -> LinearMap:
        raise NotImplementedError

    def jac_v(self, u: BlockVector, v: BlockVector) -> LinearMap:
        raise NotImplementedError
