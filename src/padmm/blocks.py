"""Block vectors: ordered stacks of complex arrays forming one variable.

A :class:`BlockVector` holds the primal stacks ``(u_0, ..., u_n)`` and
``(v_0, ..., v_2n)`` and the dual variable.  Blocks may be plain 2D
fields, gradient fields of shape ``(2, H, W)``, or any other complex
array; all vector-space operations act blockwise.
"""

from __future__ import annotations

import numpy as np


class BlockVector:
    """Immutable-by-convention tuple of complex numpy blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)

    @classmethod
    def zeros(cls, shapes) -> "BlockVector":
        return cls([np.zeros(s, dtype=np.complex128) for s in shapes])

    @property
    def shapes(self):
        return tuple(b.shape for b in self.blocks)

    def copy(self) -> "BlockVector":
        return BlockVector([b.copy() for b in self.blocks])

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]

    def __add__(self, other):
        return BlockVector([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return BlockVector([a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar):
        return BlockVector([scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __neg__(self):
        return BlockVector([-b for b in self.blocks])

    def inner(self, other: "BlockVector") -> complex:
        """Conjugate-linear in ``other``, summed over blocks."""
        return complex(
            sum(np.sum(a * np.conj(b)) for a, b in zip(self.blocks, other.blocks))
        )

    def norm(self) -> float:
        """sqrt of the blocks' :func:`sum_squares`, summed in order; no
        per-element ``hypot``."""
        total = 0.0
        for b in self.blocks:
            total += sum_squares(b)
        return float(np.sqrt(total))

    def isfinite(self) -> bool:
        """Every real and imaginary part is finite, checked on the float64
        views, which is cheaper than complex ``isfinite``."""
        return all(np.isfinite(_real_view(b)).all() for b in self.blocks)

    def __repr__(self):
        return f"BlockVector(shapes={self.shapes})"


def _real_view(b: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of ``b``, interleaved, as one flat float64
    array (a view unless ``b`` is not contiguous)."""
    return np.ascontiguousarray(b).reshape(-1).view(np.float64)


def sum_squares(b: np.ndarray):
    """r . r over the float64 view r of ``b``: its squared real and
    imaginary parts, summed."""
    r = _real_view(b)
    return np.dot(r, r)


def extrapolated_block(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """2a - b, as 2 * a then minus b, into ``out`` or a fresh array."""
    bar = np.multiply(2.0, a, out=out)
    return np.subtract(bar, b, out=bar)


def detached(x: BlockVector, *sources: BlockVector) -> BlockVector:
    """``x``, or a copy of it when one of its blocks may share memory with
    the same block of a source.

    A map, operator or prox may hand back its argument; a step that will
    overwrite the result calls this first with the arguments it does not
    own.  The copy has the same bits, so the result is the same either way.
    """
    if any(np.may_share_memory(a, b)
           for src in sources for a, b in zip(x.blocks, src.blocks)):
        return x.copy()
    return x

