"""Complex 2D fields and the linear operators shared by all solvers.

Images, k-space data and dual variables are plain ``complex128`` numpy
arrays of shape ``(H, W)``.  Gradient fields stack the two forward
differences into shape ``(2, H, W)`` with ``g[0] = dx`` and ``g[1] = dy``.

Conventions fixed here and relied upon everywhere else:

* ``inner(a, b)`` is conjugate-linear in the *second* argument.
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


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Complex inner product, conjugate-linear in ``b``."""
    return complex(np.sum(a * np.conj(b)))


def norm2(a: np.ndarray) -> float:
    """Euclidean norm over all samples."""
    return float(np.linalg.norm(a.ravel()))


def grad_matrix(height: int, width: int) -> np.ndarray:
    """Dense matrix of :func:`grad` for small grids (test oracle only)."""
    n = height * width
    if n > 64 * 64:
        raise ValueError("dense gradient matrix is a small-grid test helper")
    mat = np.zeros((2 * n, n), dtype=np.complex128)
    for k in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[k] = 1.0
        mat[:, k] = grad(e.reshape(height, width)).ravel()
    return mat
