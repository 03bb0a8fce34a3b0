"""Joint spin-density / coil-sensitivity reconstruction problem assembly.

Unknowns are stacked as u = (u_0, c_1, ..., c_n) with u_0 the spin
density.  The splitting variable v carries 2n + 1 blocks:

* v_0 .. v_{n-1}: the coil images u_0 * c_j (k-space fidelity terms),
* v_n: the gradient of u_0 (isotropic TV),
* v_{n+1} .. v_{2n}: the gradients of the coil maps (smooth 2-norm).

The constraint is F(u, v) = [C(u); grad u_0; ...; grad c_n] - v = 0 with
C the bilinear coil operator (u_0 c_1, ..., u_0 c_n); its v-Jacobian is
-I so the tau2 = 1/delta fast path applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector
from .constraint import LinearMap
from .fields import grad, grad_adjoint
from .pdhgm import (SeparableConstraint, SeparableOperator, SeparableProblem)
from .prox import (FourierFidelityProx, GlobalShrinkProx, GroupShrinkProx,
                   IdentityProx, SeparableSumProx)


def coil_op(u0: np.ndarray, coils) -> list:
    """Pointwise products (u0 * c_j) per coil."""
    for c in coils:
        if c.shape != u0.shape:
            raise ValueError("coil map shape mismatch")
    return [u0 * c for c in coils]


def coil_jacobian(u0: np.ndarray, coils) -> LinearMap:
    """Derivative of the bilinear coil operator at (u0, c_1..c_n).

    apply: (h_0, ..., h_n) -> (h_0 c_j + u0 h_j)_j
    adjoint: (w_1, ..., w_n) -> (sum_j conj(c_j) w_j ; conj(u0) w_j per j)

    Both maps act pixel by pixel.  In particular the adjoint's coil rows
    conj(u0) w_j vanish wherever u0 does, so the data terms never move a
    coil pixel where the spin density is zero; only the coil smoothness
    term reaches those pixels (acceptance criterion 8).
    """
    coils = [np.asarray(c, dtype=np.complex128) for c in coils]
    n = len(coils)
    shape = u0.shape
    u0 = np.asarray(u0, dtype=np.complex128)

    def apply(h: BlockVector) -> BlockVector:
        return BlockVector([h[0] * c + u0 * h[1 + j] for j, c in enumerate(coils)])

    def adjoint(w: BlockVector) -> BlockVector:
        h0 = sum(np.conj(c) * w[j] for j, c in enumerate(coils))
        return BlockVector([h0] + [np.conj(u0) * w[j] for j in range(n)])

    return LinearMap(apply=apply, adjoint=adjoint,
                     domain_shapes=tuple([shape] * (n + 1)),
                     codomain_shapes=tuple([shape] * n))


class CoilGradOperator(SeparableOperator):
    """G(u) = [coil images; gradient of each unknown], the u-part of F."""

    def __init__(self, n_coils: int, shape):
        self.n = int(n_coils)
        self.shape = tuple(shape)

    @property
    def u_shapes(self):
        return tuple([self.shape] * (self.n + 1))

    @property
    def v_shapes(self):
        g = (2,) + self.shape
        return tuple([self.shape] * self.n + [g] * (self.n + 1))

    def evaluate(self, u: BlockVector) -> BlockVector:
        if u.shapes != self.u_shapes:
            raise ValueError("unknown layout mismatch")
        u0, coils = u[0], list(u.blocks[1:])
        return BlockVector(coil_op(u0, coils) + [grad(b) for b in u.blocks])

    def jac(self, u: BlockVector) -> LinearMap:
        cj = coil_jacobian(u[0], list(u.blocks[1:]))
        n = self.n

        def apply(h: BlockVector) -> BlockVector:
            rows = cj.apply(h)
            return BlockVector(list(rows.blocks) + [grad(b) for b in h.blocks])

        def adjoint(w: BlockVector) -> BlockVector:
            head = cj.adjoint(BlockVector(w.blocks[:n]))
            return BlockVector([
                head[i] + grad_adjoint(w[n + i]) for i in range(n + 1)
            ])

        return LinearMap(apply=apply, adjoint=adjoint,
                         domain_shapes=self.u_shapes,
                         codomain_shapes=self.v_shapes)


@dataclass
class MriProblem:
    """Data and weights of one reconstruction instance.

    ``lam`` and ``alpha`` hold one nonnegative weight per coil; the
    reported paper-style weights are used literally, without the
    sum-to-one rescaling (the published values do not satisfy it).
    """

    mask: np.ndarray
    data: list
    lam: list
    alpha0: float
    alpha: list
    tv_shrink: str = "pixel"  # "pixel" (isotropic TV) or "global"

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if not np.all((self.mask == 0) | (self.mask == 1)):
            raise ValueError("mask must be binary")
        self.data = [np.asarray(f, dtype=np.complex128) for f in self.data]
        n = len(self.data)
        self.lam = [float(x) for x in np.broadcast_to(self.lam, (n,))]
        self.alpha = [float(x) for x in np.broadcast_to(self.alpha, (n,))]
        self.alpha0 = float(self.alpha0)
        if not all(math.isfinite(x) and x >= 0
                   for x in self.lam + self.alpha + [self.alpha0]):
            raise ValueError("weights must be finite and nonnegative")
        for f in self.data:
            if f.shape != self.mask.shape:
                raise ValueError("k-space data shape mismatch")
            if np.any(np.abs(f * (1.0 - self.mask)) > 0):
                raise ValueError("k-space data must vanish off the mask")
        if self.tv_shrink not in ("pixel", "global"):
            raise ValueError("tv_shrink must be 'pixel' or 'global'")

    @property
    def n_coils(self) -> int:
        return len(self.data)

    @property
    def shape(self):
        return self.mask.shape


def assemble_constraint(problem: MriProblem) -> SeparableConstraint:
    op = CoilGradOperator(problem.n_coils, problem.shape)
    target = BlockVector.zeros(op.v_shapes)
    return SeparableConstraint(op, target)


def assemble_prox_j(problem: MriProblem) -> SeparableSumProx:
    """Blockwise resolvent of J matching the v-layout."""
    children = [
        FourierFidelityProx(lam, problem.mask, f)
        for lam, f in zip(problem.lam, problem.data)
    ]
    if problem.tv_shrink == "pixel":
        children.append(GroupShrinkProx(problem.alpha0))
    else:
        children.append(GlobalShrinkProx(problem.alpha0))
    children += [GlobalShrinkProx(a) for a in problem.alpha]
    return SeparableSumProx(children)


def initial_unknowns(problem: MriProblem) -> BlockVector:
    """All-ones spin density and coil maps."""
    one = np.ones(problem.shape, dtype=np.complex128)
    return BlockVector([one.copy() for _ in range(problem.n_coils + 1)])


def separable_problem(problem: MriProblem) -> SeparableProblem:
    """Wire the reconstruction instance for either solver."""
    constraint = assemble_constraint(problem)
    return SeparableProblem(
        g=constraint.g,
        prox_h=IdentityProx(),
        prox_j=assemble_prox_j(problem),
        u0=initial_unknowns(problem),
        mu0=BlockVector.zeros_like(constraint.target),
        target=constraint.target,
    )
