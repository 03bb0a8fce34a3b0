"""Nonlinear constraints F(u, v) = 0, a right-hand side c folded into F,
or G(u) - v = 0, and their Jacobians.  :class:`ExplicitV` is the second
in the first's form, with v kept.

Jacobians are exposed as matrix-free apply/adjoint pairs.  The scope is
restricted to constraints that are holomorphic / multilinear in each
block, so the block derivatives are literal complex-linear maps and no
Wirtinger calculus is involved.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blocks import BlockVector, detached


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

    ``adjoint_extrapolated``, when set, is ``adjoint_extrapolated(a, b)``
    -> A*(2a - b) computed directly; it must agree with
    ``adjoint(extrapolate(a, b))`` bit for bit, return fresh arrays and
    write into neither argument.  The u-step uses it in place of the
    composition, so that 2a - b is never stored whole.
    """

    apply: Callable[[BlockVector], BlockVector]
    adjoint: Callable[[BlockVector], BlockVector]
    domain_shapes: tuple
    codomain_shapes: tuple
    normal: Optional[Callable[[BlockVector, BlockVector], BlockVector]] = None
    adjoint_extrapolated: Optional[
        Callable[[BlockVector, BlockVector], BlockVector]] = None


class NonlinearConstraint:
    """Constraint F(u, v) = 0 with blockwise Jacobian apply/adjoint.

    Subclasses implement ``evaluate``, ``jac_u`` and ``jac_v``; a
    right-hand side c is folded into ``evaluate``, which returns F - c.
    ``evaluate`` returns a vector the caller may overwrite: fresh arrays,
    or an argument itself, never an array the constraint keeps.
    """

    def evaluate(self, u: BlockVector, v: BlockVector) -> BlockVector:
        raise NotImplementedError

    def jac_u(self, u: BlockVector, v: BlockVector) -> LinearMap:
        raise NotImplementedError

    def jac_v(self, u: BlockVector, v: BlockVector) -> LinearMap:
        raise NotImplementedError


class SeparableOperator:
    """Nonlinear map G(u), the constraint G(u) - v = 0, with a matrix-free
    Jacobian; the v-Jacobian is -I, so the ADMM steps without v on it.

    ``evaluate`` returns a vector the caller may overwrite: fresh arrays,
    or its argument itself, never an array the operator keeps.
    """

    def evaluate(self, u: BlockVector) -> BlockVector:
        raise NotImplementedError

    def jac(self, u: BlockVector) -> LinearMap:
        raise NotImplementedError


class ExplicitV(NonlinearConstraint):
    """G(u) - v = 0 as a :class:`NonlinearConstraint`: the ADMM steps on
    it with v in its state, and on its v-Jacobian -I it takes the exact
    v-minimization tau2 = 1/delta (Q2 = 0), the paper's form of the
    step that the separable path folds into the mu-update."""

    def __init__(self, g: SeparableOperator):
        self.g = g

    def evaluate(self, u: BlockVector, v: BlockVector) -> BlockVector:
        r = detached(self.g.evaluate(u), u)
        for ri, vi in zip(r.blocks, v.blocks):
            np.subtract(ri, vi, out=ri)
        return r

    def jac_u(self, u: BlockVector, v: BlockVector) -> LinearMap:
        return self.g.jac(u)

    def jac_v(self, u: BlockVector, v: BlockVector) -> LinearMap:
        return LinearMap(operator.neg, operator.neg, v.shapes, v.shapes)
