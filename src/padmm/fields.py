"""Complex 2D fields and the linear operators shared by all solvers.

Images, k-space data and dual variables are plain ``complex128`` numpy
arrays of shape ``(H, W)``.  Gradient fields stack the two forward
differences into shape ``(2, H, W)`` with ``g[0] = dx`` and ``g[1] = dy``.

Conventions fixed here and relied upon everywhere else:

* ``dft2``/``idft2`` are unitary (``norm="ortho"``).
* ``grad`` uses forward differences with replicate (Neumann) boundary,
  so the last column of ``dx`` and last row of ``dy`` are zero, and
  ``grad_adjoint`` is its exact adjoint.
"""

from __future__ import annotations

import numpy as np


def grad(img: np.ndarray) -> np.ndarray:
    """Forward-difference gradient, shape (2, H, W).

    dx[i, j] = img[i, j+1] - img[i, j] (zero on the last column), and
    analogously dy in the row direction.
    """
    g = np.zeros((2,) + img.shape, dtype=np.complex128)
    g[0, :, :-1] = img[:, 1:] - img[:, :-1]
    g[1, :-1, :] = img[1:, :] - img[:-1, :]
    return g


def grad_adjoint(g: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`grad` (negative divergence)."""
    gx, gy = g[0], g[1]
    out = np.zeros(gx.shape, dtype=np.complex128)
    out[:, :-1] -= gx[:, :-1]
    out[:, 1:] += gx[:, :-1]
    out[:-1, :] -= gy[:-1, :]
    out[1:, :] += gy[:-1, :]
    return out


def dft2(img: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT."""
    return np.fft.fft2(img, norm="ortho")


def idft2(ksp: np.ndarray) -> np.ndarray:
    """Unitary 2D inverse DFT."""
    return np.fft.ifft2(ksp, norm="ortho")
