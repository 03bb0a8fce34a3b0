"""Oracles and toy problem parts that only the tests use: dense maps,
finite-difference and adjoint checks, callable constraints and operators,
a closed-form resolvent and the metrics-file parser."""

import numpy as np

from padmm.blocks import BlockVector, random_like
from padmm.constraint import LinearMap, NonlinearConstraint
from padmm.fields import grad, grad_adjoint
from padmm.pdhgm import SeparableOperator
from padmm.prox import ProxOp


def random_field(rng, h=4, w=4):
    return rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))


def random_gradient(rng, h=4, w=4):
    return rng.standard_normal((2, h, w)) + 1j * rng.standard_normal((2, h, w))


def dense_map(m):
    """The matrix ``m`` as a LinearMap between single flat blocks."""
    dom = ((m.shape[1],),)
    cod = ((m.shape[0],),)
    return LinearMap(
        apply=lambda x: BlockVector.from_ravel(m @ x.ravel(), cod),
        adjoint=lambda y: BlockVector.from_ravel(m.conj().T @ y.ravel(), dom),
        domain_shapes=dom, codomain_shapes=cod,
    )


def grad_map(h, w):
    """:func:`padmm.fields.grad` on an (h, w) grid as a LinearMap."""
    return LinearMap(
        apply=lambda x: BlockVector([grad(x[0])]),
        adjoint=lambda g: BlockVector([grad_adjoint(g[0])]),
        domain_shapes=((h, w),), codomain_shapes=((2, h, w),),
    )


def materialize(lm: LinearMap) -> np.ndarray:
    """Dense matrix of ``lm``, one applied unit vector per column."""
    n = sum(int(np.prod(s)) for s in lm.domain_shapes)
    cols = []
    for k in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[k] = 1.0
        x = BlockVector.from_ravel(e, lm.domain_shapes)
        cols.append(lm.apply(x).ravel())
    return np.stack(cols, axis=1)


class CallableConstraint(NonlinearConstraint):
    """Constraint assembled from plain callables."""

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


def affine_constraint(k, c, m=None):
    """F(u, v) = K u + M v, target c; dense K and M, M = -I by default."""
    kmap = dense_map(k)
    cod = kmap.codomain_shapes
    mmap = (LinearMap(lambda h: -h, lambda w: -w, cod, cod) if m is None
            else dense_map(m))
    return CallableConstraint(
        evaluate=lambda u, v: kmap.apply(u) + mmap.apply(v),
        jac_u=lambda u, v: kmap,
        jac_v=lambda u, v: mmap,
        target=c,
    )


class CallableOperator(SeparableOperator):
    """Separable operator G assembled from plain callables."""

    def __init__(self, evaluate, jac):
        self._evaluate = evaluate
        self._jac = jac

    def evaluate(self, u):
        return self._evaluate(u)

    def jac(self, u):
        return self._jac(u)


def fd_jacobian_check(op, jac: LinearMap, base: BlockVector,
                      direction: BlockVector, eps: float = 1e-6) -> float:
    """Relative error of ``jac`` against a central finite difference.

    ||(op(base + eps d) - op(base - eps d)) / (2 eps) - J d||
    / max(||J d||, 1e-300).
    """
    fwd = op(base + eps * direction)
    bwd = op(base - eps * direction)
    fd = (1.0 / (2.0 * eps)) * (fwd - bwd)
    jd = jac.apply(direction)
    return (fd - jd).norm() / max(jd.norm(), 1e-300)


def adjoint_check(jac: LinearMap, rng: np.random.Generator) -> float:
    """Relative error of <J h, w> = <h, J* w> on random directions."""
    h = random_like(BlockVector.zeros(jac.domain_shapes), rng)
    w = random_like(BlockVector.zeros(jac.codomain_shapes), rng)
    lhs = jac.apply(h).inner(w)
    rhs = h.inner(jac.adjoint(w))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


class QuadraticAnchorProx(ProxOp):
    """E(x) = weight/2 ||x - anchor||^2, whose resolvent is a closed form."""

    def __init__(self, anchor, weight: float = 1.0):
        self.anchor = anchor
        self.weight = float(weight)

    def apply(self, w, tau):
        s = tau * self.weight
        return (1.0 / (1.0 + s)) * (w + s * self.anchor)

    def penalty(self, x):
        d = x - self.anchor
        if isinstance(d, BlockVector):
            return 0.5 * self.weight * d.norm() ** 2
        return 0.5 * self.weight * float(np.sum(np.abs(d) ** 2))


def parse_metrics(text: str) -> dict:
    """``key: value`` lines of a metrics report, values as strings."""
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out
