"""Complex 2D fields and the linear operators shared by all solvers.

Images, k-space data and dual variables are plain ``complex128`` numpy
arrays of shape ``(H, W)``.  Gradient fields stack the two forward
differences into shape ``(2, H, W)`` with ``g[0] = dx`` and ``g[1] = dy``.

Conventions fixed here and relied upon everywhere else:

* ``dft2``/``idft2`` are unitary (``norm="ortho"``).
* ``grad`` uses forward differences with replicate (Neumann) boundary,
  so the last column of ``dx`` and last row of ``dy`` are zero, and
  ``grad_adjoint`` is its exact adjoint.

Both differences run on the row-major flat view (``reshape(-1)``), where
x-neighbours are 1 apart and y-neighbours W apart, so every difference
and shifted add is one contiguous slice.  This is exact because the only
x-pairs that wrap across rows, (i, W-1) and (i+1, 0), all start in the
last column: ``grad`` overwrites those differences with zero, and
``grad_adjoint`` overwrites the column-0 sums they reach with the values
that exclude them, so its output never depends on the last column of
``dx``.  Each output value is computed by the same floating-point
operations, in the same order, as on the 2-D slices.  For non-finite
input the discarded wrapped terms can raise a floating-point warning
that the 2-D form would not.

``grad_normal`` fuses ``grad_adjoint(grad(img))`` into caller-owned
buffers, without the (2, H, W) intermediate.  Its ``dx`` has a +0 last
column, and ``0 - dx`` is never -0, so adding ``dx_left`` across the
row wrap leaves column 0 unchanged and the save and restore of
``grad_adjoint`` is not needed.
"""

from __future__ import annotations

import numpy as np


def grad(img: np.ndarray) -> np.ndarray:
    """Forward-difference gradient, shape (2, H, W).

    dx[i, j] = img[i, j+1] - img[i, j] (zero on the last column), and
    analogously dy in the row direction.
    """
    w = img.shape[1]
    f = img.reshape(-1)
    g = np.empty((2, f.size), dtype=np.complex128)
    np.subtract(f[1:], f[:-1], out=g[0, :-1])
    g[0, w - 1::w] = 0
    np.subtract(f[w:], f[:-w], out=g[1, :-w])
    g[1, -w:] = 0
    return g.reshape((2,) + img.shape)


def grad_adjoint(g: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`grad` (negative divergence).

    Per pixel: ((0 - dx) + dx_left) - dy + dy_up, each term present
    only where its difference is.
    """
    w = g.shape[2]
    gx, gy = g.reshape(2, -1)
    out = np.subtract(0.0, gx, out=np.empty(gx.size, dtype=np.complex128))
    out[w - 1::w] = 0
    first = out[::w].copy()
    out[1:] += gx[:-1]
    out[::w] = first
    out[:-w] -= gy[:-w]
    out[w:] += gy[:-w]
    return out.reshape(g.shape[1:])


def grad_normal(img: np.ndarray, out: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """``grad_adjoint(grad(img))``, bit for bit, written into ``out``.

    ``out`` is a C-contiguous (H, W) complex field and ``scratch`` a flat
    complex array of H*W entries; neither may overlap ``img``, and both
    are overwritten.  ``scratch`` holds dx, then dy once dx is consumed.
    """
    if not out.flags.c_contiguous:
        raise ValueError("grad_normal writes through out's flat view")
    w = img.shape[1]
    f = img.reshape(-1)
    o, d = out.reshape(-1), scratch
    np.subtract(f[1:], f[:-1], out=d[:-1])
    d[w - 1::w] = 0
    np.subtract(0.0, d, out=o)
    o[1:] += d[:-1]
    np.subtract(f[w:], f[:-w], out=d[:-w])
    o[:-w] -= d[:-w]
    o[w:] += d[:-w]
    return out


def dft2(img: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT."""
    return np.fft.fft2(img, norm="ortho")


def idft2(ksp: np.ndarray) -> np.ndarray:
    """Unitary 2D inverse DFT."""
    return np.fft.ifft2(ksp, norm="ortho")
