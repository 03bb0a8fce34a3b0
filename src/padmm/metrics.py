"""Reconstruction metrics, the zero-filling baseline and image export."""

from __future__ import annotations

import math

import numpy as np

from .dataset import atomic_write
from .fields import idft2

PSNR_SENTINEL = float("inf")


def psnr(recon: np.ndarray, truth: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, computed on modulus images.

    Peak is the maximum modulus of ``truth``; identical inputs return
    the +inf sentinel, and an MSE that overflows (or a zero peak) gives
    -inf.  Note the asymmetry: MSE is symmetric but the peak is taken
    from the second argument.
    """
    if recon.shape != truth.shape:
        raise ValueError("shape mismatch")
    err = np.abs(recon) - np.abs(truth)
    with np.errstate(over="ignore"):
        mse = float(np.mean(err ** 2))
    if mse == 0.0:
        return PSNR_SENTINEL
    ratio = float(np.max(np.abs(truth))) ** 2 / mse
    if ratio == 0.0:
        return float("-inf")
    return 10.0 * math.log10(ratio)


def zero_fill_baseline(data) -> np.ndarray:
    """Average of the inverse transforms of the zero-filled coil data."""
    fields = [idft2(f) for f in data]
    return sum(fields) / len(fields)


def write_pgm(path, field: np.ndarray):
    """8-bit binary PGM of the modulus, linearly scaled to [0, max]."""
    mod = np.abs(field)
    peak = float(mod.max())
    if peak <= 0:
        peak = 1.0
    img = np.clip(mod / peak, 0.0, 1.0)
    pixels = np.round(img * 255.0).astype(np.uint8)
    header = f"P5\n{field.shape[1]} {field.shape[0]}\n255\n".encode("ascii")
    atomic_write(path, [header, pixels.tobytes()])


def format_metrics(values: dict) -> str:
    """One ``key: value`` line per entry, in the dict's order (``str`` of a
    float is its ``repr``, so values read back exactly)."""
    return "".join(f"{key}: {value}\n" for key, value in values.items())
