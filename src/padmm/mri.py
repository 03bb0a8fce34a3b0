"""Joint spin-density / coil-sensitivity reconstruction problem assembly.

Unknowns are stacked as u = (u_0, c_1, ..., c_n) with u_0 the spin
density.  The splitting variable v carries 2n + 1 blocks:

* v_0 .. v_{n-1}: the coil images u_0 * c_j (k-space fidelity terms),
* v_n: the gradient of u_0 (isotropic TV),
* v_{n+1} .. v_{2n}: the gradients of the coil maps (smooth 2-norm).

The constraint is F(u, v) = [C(u); grad u_0; ...; grad c_n] - v = 0 with
C the bilinear coil operator (u_0 c_1, ..., u_0 c_n).  It is separable
(v-Jacobian -I): both solvers take G = :class:`CoilGradOperator`, and the
ADMM step eliminates v, the dual-first step's two halves reordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector, extrapolated_block
from .constraint import LinearMap, SeparableOperator
from .fields import grad, grad_adjoint, grad_normal
from .pdhgm import SeparableProblem
from .prox import (FourierFidelityProx, GlobalShrinkProx, GroupShrinkProx,
                   IdentityProx, SeparableSumProx)


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
        u0, coils = u[0], u.blocks[1:]
        return BlockVector([u0 * c for c in coils] + [grad(b) for b in u.blocks])

    def jac(self, u: BlockVector) -> LinearMap:
        """Derivative of G at u = (u0, c_1..c_n).

        apply: h -> [(h_0 c_j + u0 h_j)_j ; grad h_i per i]
        adjoint: w -> [sum_j conj(c_j) w_j + grad* w_n ;
                       conj(u0) w_j + grad* w_{n+1+j} per coil j]
        adjoint_extrapolated: a, b -> adjoint(2a - b), each block
                       2a_i - b_i formed in scratch as it is read
        normal: h, out -> adjoint(apply(h)), one coil at a time, into out

        The coil rows act pixel by pixel.  In particular the adjoint's
        coil rows conj(u0) w_j vanish wherever u0 does, so the data terms
        never move a coil pixel where the spin density is zero; only the
        coil smoothness term reaches those pixels (acceptance criterion 8).
        """
        u0, coils, n = u[0], u.blocks[1:], self.n
        conj_u0 = np.conj(u0)
        # per-Jacobian scratch, shared by the closures below (one call at
        # a time): two fields, which together hold one gradient block;
        # conj(c_j) is formed on the fly into ``tmp``
        scratch = np.empty((2,) + self.shape, dtype=np.complex128)
        r, tmp = scratch
        flat_tmp = tmp.reshape(-1)

        # Rows are accumulated in place, in the order of the formulas
        # above: h0 starts as 0 + the first product, as a ``sum`` would.
        def apply(h: BlockVector) -> BlockVector:
            rows = []
            for j, c in enumerate(coils):
                row = h[0] * c
                row += np.multiply(u0, h[1 + j], out=tmp)
                rows.append(row)
            return BlockVector(rows + [grad(b) for b in h.blocks])

        # The adjoint of the v-vector whose block i is ``block(i)``, which
        # is read once: coil block j feeds h0 and row j, then come the
        # grad* terms.  A coil block may live in ``r``, a gradient block
        # in the whole scratch.
        def adjoint_of(block) -> BlockVector:
            h0 = np.zeros(self.shape, dtype=np.complex128)
            rows = []
            for j, c in enumerate(coils):
                w = block(j)
                h0 += np.multiply(np.conj(c, out=tmp), w, out=tmp)
                rows.append(conj_u0 * w)
            h0 += grad_adjoint(block(n))
            for j, row in enumerate(rows):
                row += grad_adjoint(block(n + 1 + j))
            return BlockVector([h0] + rows)

        def adjoint(w: BlockVector) -> BlockVector:
            return adjoint_of(w.__getitem__)

        # 2a - b one block at a time, each in scratch as it is read
        def adjoint_extrapolated(a: BlockVector, b: BlockVector) -> BlockVector:
            return adjoint_of(lambda i: extrapolated_block(
                a[i], b[i], out=r if i < n else scratch))

        # adjoint(apply(h)) coil by coil: the same operations in the same
        # order, so bit-identical, without the v-layout intermediate; the
        # rows go into ``out``'s blocks, which must not overlap ``h``
        def normal(h: BlockVector, out: BlockVector) -> BlockVector:
            h0 = out[0]
            h0.fill(0)
            for j, c in enumerate(coils):
                np.multiply(h[0], c, out=r)
                np.add(r, np.multiply(u0, h[1 + j], out=tmp), out=r)
                h0 += np.multiply(np.conj(c, out=tmp), r, out=tmp)
                row = np.multiply(conj_u0, r, out=out[1 + j])
                # r and tmp are free again: grad* grad h_j goes into r
                row += grad_normal(h[1 + j], r, flat_tmp)
            h0 += grad_normal(h[0], r, flat_tmp)
            return out

        return LinearMap(apply=apply, adjoint=adjoint,
                         domain_shapes=self.u_shapes,
                         codomain_shapes=self.v_shapes, normal=normal,
                         adjoint_extrapolated=adjoint_extrapolated)


def coil_weights(lam, alpha0, alpha, n: int):
    """``[lam, alpha0, alpha]`` as floats, ``lam`` and ``alpha`` broadcast
    from a scalar to n coils.  A list of another length, or a weight that
    is not finite and nonnegative, raises ``ValueError`` naming its key."""
    def checked(key, value, shape):
        if np.ndim(value) and np.shape(value) != shape:
            raise ValueError(f"weights.{key} lists {len(value)} values "
                             f"for {n} coils")
        values = np.array(np.broadcast_to(value, shape), dtype=float)
        if not np.all((values >= 0) & (values < np.inf)):
            raise ValueError(f"weights.{key} must be finite and nonnegative")
        return values.tolist()
    return [checked("lam", lam, (n,)), checked("alpha0", alpha0, ()),
            checked("alpha", alpha, (n,))]


@dataclass
class MriProblem:
    """Data and weights of one reconstruction instance, checked once here
    for the resolvents: weights by :func:`coil_weights`, a binary mask S
    (as float64), and finite per-coil k-space data of S's shape, zero off
    S.  Weights are used literally, without the paper's sum-to-one rule.
    """

    mask: np.ndarray
    data: list
    lam: list
    alpha0: float
    alpha: list

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if not np.all((self.mask == 0) | (self.mask == 1)):
            raise ValueError("mask must be binary")
        self.data = [np.asarray(f, dtype=np.complex128) for f in self.data]
        self.lam, self.alpha0, self.alpha = coil_weights(
            self.lam, self.alpha0, self.alpha, len(self.data))
        for f in self.data:
            if f.shape != self.mask.shape:
                raise ValueError("k-space data shape mismatch")
            if not np.all(np.isfinite(f)):
                raise ValueError("k-space data must be finite")
            if np.any(f[self.mask == 0] != 0):
                raise ValueError("k-space data must vanish off the mask")

    @property
    def n_coils(self) -> int:
        return len(self.data)

    @property
    def shape(self):
        return self.mask.shape


def assemble_prox_j(problem: MriProblem) -> SeparableSumProx:
    """Blockwise resolvent of J matching the v-layout."""
    children = [
        FourierFidelityProx(lam, problem.mask, f)
        for lam, f in zip(problem.lam, problem.data)
    ]
    children.append(GroupShrinkProx(problem.alpha0))
    children += [GlobalShrinkProx(a) for a in problem.alpha]
    return SeparableSumProx(children)


def _shared_start(shapes, make) -> BlockVector:
    """A start vector of ``shapes`` with one read-only array per distinct
    shape, ``make(shape, dtype=complex128)``, shared by every block of
    that shape."""
    arrays = {s: make(s, dtype=np.complex128) for s in dict.fromkeys(shapes)}
    for a in arrays.values():
        a.setflags(write=False)
    return BlockVector([arrays[s] for s in shapes])


def initial_unknowns(problem: MriProblem) -> BlockVector:
    """All-ones spin density and coil maps: one read-only array, shared
    by every block."""
    return _shared_start([problem.shape] * (problem.n_coils + 1), np.ones)


def separable_problem(problem: MriProblem) -> SeparableProblem:
    """Wire the reconstruction instance for either solver.

    The start vectors are shared and read-only: u0 is
    :func:`initial_unknowns`, and mu0 holds one zero field and one zero
    gradient field for its 3n + 2 blocks.  The solvers' ``start`` copies
    them; an in-place write to them raises ``ValueError``.
    """
    g = CoilGradOperator(problem.n_coils, problem.shape)
    return SeparableProblem(
        g=g,
        prox_h=IdentityProx(),
        prox_j=assemble_prox_j(problem),
        u0=initial_unknowns(problem),
        mu0=_shared_start(g.v_shapes, np.zeros),
    )
