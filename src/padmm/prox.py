"""Resolvent (proximal) operators for every penalty used by the solvers.

Each prox solves ``argmin_x 1/2 ||x - w||^2 + tau * E(x)``.  The
``penalty`` method returns ``E(x)`` so tests can verify prox outputs
against the defining minimization directly.

Covered penalties:

* identity — E = 0,
* Fourier-domain least squares ``lam/2 ||S F x - f||^2`` with a binary
  sampling mask (closed form: elementwise division in k-space),
* per-pixel group soft-thresholding for isotropic TV ``alpha ||.||_{2,1}``,
* one global shrink for the smooth gradient norm ``alpha ||.||_{2,2}``,
* blockwise separable sums of the above,
* the convex-conjugate prox obtained through Moreau's identity.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockVector
from .fields import dft2, idft2


class ProxOp:
    """Base resolvent; subclasses implement ``apply`` and ``penalty``."""

    def apply(self, w, tau: float):
        raise NotImplementedError

    def penalty(self, x) -> float:
        raise NotImplementedError


class IdentityProx(ProxOp):
    """Resolvent of E = 0: returns its argument unchanged."""

    def apply(self, w, tau):
        return w

    def penalty(self, x):
        return 0.0


class FourierFidelityProx(ProxOp):
    """E(x) = lam/2 ||S F x - f||^2 for a binary k-space mask S.

    The minimizer is diagonal in k-space: F x = (F w + tau lam f) /
    (1 + tau lam S), using that f vanishes off the mask.
    """

    def __init__(self, lam: float, mask: np.ndarray, data: np.ndarray):
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        mask = np.asarray(mask)
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask must be binary")
        if mask.shape != np.shape(data):
            raise ValueError("mask/data shape mismatch")
        self.lam = float(lam)
        self.mask = mask.astype(np.float64)
        self.data = np.asarray(data, dtype=np.complex128)

    def apply(self, w, tau):
        if w.shape != self.mask.shape:
            raise ValueError("argument shape does not match mask")
        s = tau * self.lam
        return idft2((dft2(w) + s * self.data) / (1.0 + s * self.mask))

    def penalty(self, x):
        r = self.mask * dft2(x) - self.data
        return 0.5 * self.lam * float(np.sum(np.abs(r) ** 2))


class GroupShrinkProx(ProxOp):
    """Isotropic-TV resolvent: per-pixel shrink of the gradient 2-vector.

    E(g) = alpha * sum_pixels |(dx, dy)|_2.  Pixels with magnitude below
    alpha*tau map to zero (0/0 resolved to 0).
    """

    def __init__(self, alpha: float):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.alpha = float(alpha)

    def apply(self, g, tau):
        t = tau * self.alpha
        mag = np.sqrt(np.sum(np.abs(g) ** 2, axis=0))
        scale = np.zeros_like(mag)
        np.divide(np.maximum(mag - t, 0.0), mag, out=scale, where=mag > 0)
        return g * scale[None]

    def penalty(self, g):
        return self.alpha * float(np.sum(np.sqrt(np.sum(np.abs(g) ** 2, axis=0))))


class GlobalShrinkProx(ProxOp):
    """Resolvent of the global 2-norm penalty E(g) = alpha ||g||_2."""

    def __init__(self, alpha: float):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.alpha = float(alpha)

    def apply(self, g, tau):
        t = tau * self.alpha
        r = float(np.linalg.norm(np.ravel(g)))
        if r <= t:
            return np.zeros_like(g)
        return g * (1.0 - t / r)

    def penalty(self, g):
        return self.alpha * float(np.linalg.norm(np.ravel(g)))


class SeparableSumProx(ProxOp):
    """Blockwise prox of E(v) = sum_j E_j(v_j) on a BlockVector."""

    def __init__(self, children):
        self.children = tuple(children)

    def apply(self, v: BlockVector, tau):
        if len(v) != len(self.children):
            raise ValueError("block count does not match child prox count")
        return BlockVector([p.apply(b, tau) for p, b in zip(self.children, v.blocks)])

    def penalty(self, v: BlockVector):
        return float(sum(p.penalty(b) for p, b in zip(self.children, v.blocks)))


def conjugate_apply(prox: ProxOp, w, delta: float):
    """Resolvent of the convex conjugate, (I + delta dE*)^{-1}(w).

    Obtained from Moreau's identity
    b = (I + (1/delta) dE)^{-1}(b) + (1/delta)(I + delta dE*)^{-1}(delta b)
    with w = delta * b, so the caller passes the dual-scaled point.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return w - delta * prox.apply((1.0 / delta) * w, 1.0 / delta)
