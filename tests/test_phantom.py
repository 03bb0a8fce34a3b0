import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padmm.fields import dft2, grad
from padmm.phantom import (DEFAULT_ELLIPSES, FRACTION_TOL, TISSUES,
                           MaskFractionError, PhantomSpec, SamplingSpec,
                           build_phantom, flair_signal, make_coil_maps,
                           simulate_kspace, spiral_mask)

from oracles import bit_identical, stamped_spiral_mask


class TestSignalModel:
    def test_inversion_time_nulls_csf(self):
        t = TISSUES["csf"]
        s = flair_signal(t.rho, t.t1, t.t2)
        assert abs(s) < 1e-3 * t.rho

    def test_exact_null_at_log_two_inversion(self):
        # ti = t1 ln 2 makes 1 - 2 exp(-ti/t1) vanish exactly in doubles
        t1 = 2569.0
        s = flair_signal(1.0, t1, 100.0, ti=t1 * math.log(2.0))
        assert s == 0.0

    def test_signal_decreases_with_echo_time(self):
        t = TISSUES["wm"]
        te = np.linspace(10.0, 200.0, 20)
        s = flair_signal(t.rho, t.t1, t.t2, te=te)
        assert np.all(np.diff(s) < 0)

    def test_zero_density_gives_zero_signal(self):
        assert flair_signal(0.0, 500.0, 50.0) == 0.0


class TestPhantom:
    def test_deterministic_and_normalized(self):
        spec = PhantomSpec(size=64)
        a, b = build_phantom(spec), build_phantom(spec)
        assert np.array_equal(a, b)
        assert np.isclose(np.max(np.abs(a)), 1.0)
        assert np.all(a.imag == 0)

    def test_background_is_zero(self):
        img = build_phantom(PhantomSpec(size=64))
        assert img[0, 0] == 0
        assert img[0, -1] == 0
        assert img[-1, 0] == 0

    def test_empty_composite_is_zero(self):
        # the one pixel of a 1x1 grid sits at (-1, -1), outside every
        # ellipse, so nothing is painted and the peak stays 0
        img = build_phantom(PhantomSpec(size=1))
        assert img.shape == (1, 1)
        assert np.all(img == 0)

    def test_contains_multiple_tissue_levels(self):
        img = np.abs(build_phantom(PhantomSpec(size=128)))
        levels = np.unique(np.round(img, 6))
        assert len(levels) >= 4  # background + at least three tissues

    def test_ventricles_darker_than_white_matter(self):
        # CSF is nulled, so the ventricle interior must drop below WM
        img = np.abs(build_phantom(PhantomSpec(size=128)))
        center = img[64, 64]
        ventricle = img[int(128 * (1 - 0.05) / 2), int(128 * (1 - 0.11) / 2)]
        assert ventricle < 0.2 * center


class TestCoilMaps:
    def test_deterministic_per_seed(self):
        a = make_coil_maps(4, 48, seed=3)
        b = make_coil_maps(4, 48, seed=3)
        c = make_coil_maps(4, 48, seed=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert not np.array_equal(a[0], c[0])

    def test_smoothness(self):
        for c in make_coil_maps(4, 190, seed=0):
            g = grad(c)
            assert np.max(np.abs(g)) <= 0.1 * np.max(np.abs(c))

    def test_maps_are_distinct(self):
        maps = make_coil_maps(4, 64, seed=1)
        for i in range(4):
            for j in range(i + 1, 4):
                a, b = maps[i].ravel(), maps[j].ravel()
                corr = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
                assert corr < 0.99

    def test_sum_of_squares_well_conditioned(self):
        maps = make_coil_maps(8, 96, seed=2)
        sos = np.sqrt(sum(np.abs(c) ** 2 for c in maps))
        assert np.min(sos) >= 0.1 * np.max(sos)

    def test_single_coil_centered(self):
        (c,) = make_coil_maps(1, 33, seed=0)
        mag = np.abs(c)
        assert mag[16, 16] == pytest.approx(np.max(mag))


class TestSpiralMask:
    def test_fraction_and_dc(self):
        spec = SamplingSpec(fraction=0.25, turns=12.0)
        mask = spiral_mask(spec, 190)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert abs(mask.mean() - 0.25) <= FRACTION_TOL
        assert mask[0, 0] == 1.0  # DC bin after the shift to corner

    def test_full_sampling_shortcut(self):
        mask = spiral_mask(SamplingSpec(fraction=1.0), 32)
        assert np.all(mask == 1.0)

    def test_deterministic(self):
        spec = SamplingSpec(fraction=0.3, turns=8.0)
        assert np.array_equal(spiral_mask(spec, 96), spiral_mask(spec, 96))

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            spiral_mask(SamplingSpec(fraction=0.0), 32)

    def test_unreachable_fraction_raises(self):
        # a 3x3 grid covers k/9 of k-space: no count lies within
        # FRACTION_TOL of 0.3, so the bisection runs out
        spec = SamplingSpec(fraction=0.3, turns=3.0)
        with pytest.raises(MaskFractionError, match="search ended"):
            spiral_mask(spec, 3)


def _mask_or_error(search, spec, size):
    try:
        return search(spec, size)
    except MaskFractionError as exc:
        return str(exc)


def _same_search(spec, size):
    """``spiral_mask`` against the stamp-per-thickness search: the same
    mask bit for bit, or the same MaskFractionError."""
    new = _mask_or_error(spiral_mask, spec, size)
    old = _mask_or_error(stamped_spiral_mask, spec, size)
    if isinstance(old, str) or isinstance(new, str):
        return new == old
    return bit_identical(new, old)


class TestSpiralMaskField:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(2, 64), st.floats(0.5, 20.0), st.floats(0.02, 0.99))
    def test_matches_the_stamped_search(self, size, turns, fraction):
        assert _same_search(SamplingSpec(fraction=fraction, turns=turns), size)

    @pytest.mark.parametrize("size", [96, 190])
    def test_workload_grids(self, size):
        # the benchmark's three workloads all sample 0.25 on 12 turns
        assert _same_search(SamplingSpec(fraction=0.25, turns=12.0), size)


class TestKSpaceSimulation:
    def test_off_mask_bins_exactly_zero(self):
        rng = np.random.default_rng(0)
        phantom = build_phantom(PhantomSpec(size=48))
        maps = make_coil_maps(2, 48, seed=1)
        mask = spiral_mask(SamplingSpec(fraction=0.3, turns=6.0), 48)
        data = simulate_kspace(phantom, maps, mask, sigma=0.1, seed=5)
        for f in data:
            assert np.all(f[mask == 0] == 0)

    def test_noiseless_matches_model(self):
        phantom = build_phantom(PhantomSpec(size=48))
        maps = make_coil_maps(2, 48, seed=1)
        mask = np.ones((48, 48))
        data = simulate_kspace(phantom, maps, mask, sigma=0.0, seed=0)
        for f, c in zip(data, maps):
            assert np.allclose(f, dft2(phantom * c), atol=1e-12)

    def test_noise_level_on_sampled_bins(self):
        phantom = build_phantom(PhantomSpec(size=190))
        maps = make_coil_maps(1, 190, seed=0)
        mask = np.ones((190, 190))
        sigma = 0.05
        clean = simulate_kspace(phantom, maps, mask, 0.0, seed=0)[0]
        noisy = simulate_kspace(phantom, maps, mask, sigma, seed=0)[0]
        noise = (noisy - clean).ravel()
        assert abs(np.std(noise.real) - sigma) < 0.05 * sigma
        assert abs(np.std(noise.imag) - sigma) < 0.05 * sigma

    def test_seeded_noise_reproducible(self):
        phantom = build_phantom(PhantomSpec(size=32))
        maps = make_coil_maps(2, 32, seed=0)
        mask = np.ones((32, 32))
        a = simulate_kspace(phantom, maps, mask, 0.1, seed=9)
        b = simulate_kspace(phantom, maps, mask, 0.1, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
