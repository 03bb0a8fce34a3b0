"""Synthetic data generation: FLAIR brain phantom, coil maps, spiral mask.

The phantom is an ellipse composite: each region carries a tissue tag,
later regions paint over earlier ones, and the per-pixel signal comes
from the FLAIR sequence equation.  Tissue relaxation values follow the
BrainWeb-style table commonly used for 1.5 T simulations (CSF T1 fixed
at 2569 ms so the inversion time 1781 ms nulls it); cortical bone is an
approximate short-T2, low-density entry.  The acceptance checks depend
only on relative tissue contrast, not on these exact numbers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .fields import dft2


@dataclass(frozen=True)
class TissueParams:
    rho: float   # relative spin density, a.u.
    t1: float    # ms
    t2: float    # ms


# Frozen ground-truth table for the simulator (1.5 T values).
TISSUES = {
    "background": TissueParams(rho=0.0, t1=1.0, t2=1.0),
    "csf": TissueParams(rho=1.0, t1=2569.0, t2=329.0),
    "gm": TissueParams(rho=0.86, t1=833.0, t2=83.0),
    "wm": TissueParams(rho=0.77, t1=500.0, t2=70.0),
    "bone": TissueParams(rho=0.12, t1=246.0, t2=0.9),
}

# FLAIR sequence timing (ms); TI = T1_csf * ln 2 nulls CSF.
TR_MS = 10000.0
TE_MS = 90.0
TI_MS = 1781.0

FRACTION_TOL = 0.02  # how far a spiral mask's coverage may miss its target


def flair_signal(rho, t1, t2, tr=TR_MS, te=TE_MS, ti=TI_MS):
    """FLAIR signal s = rho (1 - 2 e^{-TI/T1}) (1 - e^{-TR/T1}) e^{-TE/T2}."""
    return rho * (1.0 - 2.0 * np.exp(-ti / t1)) * (1.0 - np.exp(-tr / t1)) \
        * np.exp(-te / t2)


@dataclass(frozen=True)
class Ellipse:
    """Region in normalized [-1, 1]^2 coordinates, painter's order."""

    tissue: str
    cx: float
    cy: float
    a: float
    b: float
    angle_deg: float = 0.0


# Ellipse composite loosely shaped like an axial brain slice: skull,
# CSF layer, cortical GM shell, WM interior, CSF ventricles and a few
# deep GM structures for fine detail.
DEFAULT_ELLIPSES = (
    Ellipse("bone", 0.0, 0.0, 0.75, 0.95, 0.0),
    Ellipse("csf", 0.0, 0.0, 0.68, 0.88, 0.0),
    Ellipse("gm", 0.0, 0.0, 0.64, 0.84, 0.0),
    Ellipse("wm", 0.0, 0.0, 0.54, 0.74, 0.0),
    Ellipse("csf", -0.11, -0.05, 0.07, 0.24, 18.0),
    Ellipse("csf", 0.11, -0.05, 0.07, 0.24, -18.0),
    Ellipse("gm", 0.0, 0.28, 0.10, 0.13, 0.0),
    Ellipse("gm", -0.20, 0.35, 0.06, 0.09, 25.0),
    Ellipse("gm", 0.20, 0.35, 0.06, 0.09, -25.0),
    Ellipse("gm", 0.0, -0.48, 0.05, 0.05, 0.0),
    Ellipse("wm", 0.0, 0.05, 0.03, 0.03, 0.0),
)


@dataclass(frozen=True)
class PhantomSpec:
    size: int = 190

    def __post_init__(self):
        if operator.index(self.size) < 1:
            raise ValueError("phantom size must be at least 1")


@dataclass(frozen=True)
class SamplingSpec:
    fraction: float = 0.25
    turns: float = 12.0
    sigma: float = 0.05
    noise_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("sampling fraction must lie in (0, 1]")
        if not (math.isfinite(self.turns) and self.turns > 0):
            raise ValueError("spiral turns must be positive and finite")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be nonnegative and finite")
        if operator.index(self.noise_seed) < 0:
            raise ValueError("seeds must be nonnegative")


def _normalized_grid(size: int):
    # a size x size complex128 field must fit numpy's byte count
    if not size * size < np.iinfo(np.intp).max / 16:
        raise MemoryError(f"phantom.size {size!r}: a {size}x{size} field "
                          "is too large to allocate")
    ax = np.linspace(-1.0, 1.0, size)
    return np.meshgrid(ax, ax, indexing="xy")


def build_phantom(spec: PhantomSpec) -> np.ndarray:
    """Rasterize the ellipse composite; real signal, max modulus 1."""
    x, y = _normalized_grid(spec.size)
    img = np.zeros((spec.size, spec.size), dtype=np.float64)
    for e in DEFAULT_ELLIPSES:
        t = TISSUES[e.tissue]
        phi = math.radians(e.angle_deg)
        xr = (x - e.cx) * math.cos(phi) + (y - e.cy) * math.sin(phi)
        yr = (y - e.cy) * math.cos(phi) - (x - e.cx) * math.sin(phi)
        inside = (xr / e.a) ** 2 + (yr / e.b) ** 2 <= 1.0
        img[inside] = flair_signal(t.rho, t.t1, t.t2)
    peak = np.max(np.abs(img))
    if peak > 0:
        img = img / peak
    return img.astype(np.complex128)


def make_coil_maps(n: int, size: int, seed: int) -> list:
    """Smooth synthetic complex sensitivity maps, deterministic per seed.

    Gaussian magnitude profiles centered around the field of view with a
    slowly varying phase; sum-of-squares magnitude stays well away from
    zero over the whole grid.
    """
    rng = np.random.default_rng(seed)
    x, y = _normalized_grid(size)
    maps = []
    for j in range(n):
        if n == 1:
            cx = cy = 0.0
        else:
            ang = 2.0 * math.pi * j / n + rng.uniform(-0.1, 0.1)
            cx, cy = 1.1 * math.cos(ang), 1.1 * math.sin(ang)
        width = 1.1 + rng.uniform(-0.05, 0.05)
        mag = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width ** 2))
        phase = rng.uniform(-math.pi, math.pi) \
            + 0.4 * (x * math.cos(j) + y * math.sin(j)) \
            + 0.15 * x * y
        maps.append((mag * np.exp(1j * phase)).astype(np.complex128))
    return maps


class MaskFractionError(RuntimeError):
    """Spiral parameter search could not reach the target coverage."""


def _spiral_lines(size: int, turns: float):
    """Centered one-armed Archimedean spiral, as a function from a line
    thickness t to ``d <= (t/2)**2 + 0.25`` plus the center pixel.  ``d``
    holds per pixel (i, j) the least ``(i - py)**2 + (j - px)**2`` over
    the samples (py, px) that round to within ``done`` px of it.  Samples
    round to within 0.5 px, so farther ones give at least (ceil(t/2) +
    0.5)**2 > (t/2)**2 + 0.25, and ``d`` widens only to ceil(t/2)."""
    center = (size - 1) / 2.0
    r_max = math.sqrt(2.0) * size / 2.0
    theta_max = 2.0 * math.pi * turns
    # uniform theta sampling fine enough for ~0.3 px arc steps outermost
    n_samples = theta_max * r_max / 0.3
    # n float64 samples must fit numpy's byte count; inf never does
    if not n_samples < np.iinfo(np.intp).max / 8:
        raise MemoryError(f"sampling.turns {turns!r}: too many spiral samples")
    n_samples = max(int(n_samples), 64)
    theta = np.linspace(0.0, theta_max, n_samples)
    r = r_max * theta / theta_max
    px = center + r * np.cos(theta)
    py = center + r * np.sin(theta)
    i0, j0 = np.rint(py), np.rint(px)
    d, done = np.full(size * size, np.inf), -1

    def line(thickness: float) -> np.ndarray:
        nonlocal done
        half = thickness / 2.0
        win = max(int(math.ceil(half)), 0)
        for di in range(-win, win + 1):
            for dj in range(-win, win + 1):
                if max(abs(di), abs(dj)) > done:  # not yet in d
                    i, j = i0 + di, j0 + dj
                    dist = (i - py) ** 2 + (j - px) ** 2
                    keep = (i >= 0) & (i < size) & (j >= 0) & (j < size)
                    np.minimum.at(d, (i * size + j)[keep].astype(np.int64),
                                  dist[keep])
        done = max(done, win)
        mask = (d <= half ** 2 + 0.25).reshape(size, size)
        mask[int(round(center)), int(round(center))] = True
        return mask
    return line


def spiral_mask(spec: SamplingSpec, size: int) -> np.ndarray:
    """Binary k-space mask with DC at index [0, 0].

    Line thickness is found by bisection so the covered fraction lands
    within ``FRACTION_TOL`` of the target; deterministic, seed-free.
    """
    if spec.fraction >= 1.0:
        return np.ones((size, size), dtype=np.float64)

    line = _spiral_lines(size, spec.turns)
    lo, hi = 0.0, 1.0
    # grow hi until coverage overshoots the target
    for _ in range(20):
        if line(hi).mean() >= spec.fraction:
            break
        hi *= 2.0
    else:
        raise MaskFractionError("spiral cannot reach the requested fraction")

    for _ in range(40):
        mid = 0.5 * (lo + hi)
        centered = line(mid)
        frac = centered.mean()
        if abs(frac - spec.fraction) <= FRACTION_TOL:
            return np.fft.ifftshift(centered.astype(np.float64))
        if frac < spec.fraction:
            lo = mid
        else:
            hi = mid
    raise MaskFractionError(
        f"search ended {abs(frac - spec.fraction):.3f} away from target")


def simulate_kspace(phantom: np.ndarray, coil_maps, mask: np.ndarray,
                    sigma: float, seed: int):
    """Sub-sampled noisy k-space per coil.

    f_j = S F(phantom * c_j) + noise, with independent real and
    imaginary Gaussian components of standard deviation sigma on the
    sampled bins only; off-mask bins are exactly zero.
    """
    rng = np.random.default_rng(seed)
    data = []
    for c in coil_maps:
        ksp = mask * dft2(phantom * c)
        if sigma > 0:
            noise = sigma * (rng.standard_normal(mask.shape)
                             + 1j * rng.standard_normal(mask.shape))
            ksp = ksp + mask * noise
        data.append(ksp)
    return data
