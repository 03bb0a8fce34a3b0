import math

import numpy as np
import pytest

from padmm.fields import dft2
from padmm.metrics import format_metrics, psnr, write_pgm, zero_fill_baseline

from oracles import parse_metrics


class TestPsnr:
    def test_identical_inputs_hit_sentinel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert psnr(x, x) == float("inf")

    def test_uniform_tenth_peak_offset_is_twenty_db(self):
        rng = np.random.default_rng(1)
        truth = np.abs(rng.standard_normal((16, 16)))
        peak = truth.max()
        recon = truth + 0.1 * peak  # modulus error 0.1*peak everywhere
        assert psnr(recon, truth) == pytest.approx(20.0, abs=1e-12)

    def test_zero_reconstruction_formula(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        expected = 10.0 * math.log10(
            np.max(np.abs(truth)) ** 2 / np.mean(np.abs(truth) ** 2))
        assert psnr(np.zeros_like(truth), truth) == pytest.approx(expected)

    def test_phase_errors_are_invisible(self):
        # the metric compares modulus images only
        rng = np.random.default_rng(3)
        truth = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        # moduli agree to rounding, so the score sits at float precision
        assert psnr(truth * np.exp(0.7j), truth) > 250.0

    @pytest.mark.parametrize("recon, truth", [
        (np.full((4, 4), 1e300), np.ones((4, 4))),  # the MSE overflows
        (np.ones((4, 4)), np.zeros((4, 4))),        # zero peak
    ])
    def test_no_signal_above_the_error_is_minus_inf(self, recon, truth):
        with np.errstate(over="ignore"):
            assert psnr(recon, truth) == float("-inf")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))


class TestZeroFill:
    def test_full_mask_unit_coil_recovers_image(self):
        rng = np.random.default_rng(4)
        img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        out = zero_fill_baseline([dft2(img)])
        assert np.allclose(out, img, atol=1e-10)

    def test_coil_average(self):
        rng = np.random.default_rng(5)
        imgs = [rng.standard_normal((8, 8)).astype(complex) for _ in range(3)]
        out = zero_fill_baseline([dft2(x) for x in imgs])
        assert np.allclose(out, sum(imgs) / 3, atol=1e-10)


class TestReport:
    VALUES = {
        "psnr_recon_db": 24.5572,
        "psnr_zerofill_db": 10.2185,
        "final_residual": 3.2e-05,
        "iterations": 1500,
        "wall_ms": 52000.125,
    }

    def test_field_order_is_fixed(self):
        keys = [line.split(":")[0]
                for line in format_metrics(self.VALUES).strip().splitlines()]
        assert keys == ["psnr_recon_db", "psnr_zerofill_db",
                        "final_residual", "iterations", "wall_ms"]

    def test_round_trip_exact(self):
        back = parse_metrics(format_metrics(self.VALUES))
        assert float(back["psnr_recon_db"]) == self.VALUES["psnr_recon_db"]
        assert float(back["final_residual"]) == self.VALUES["final_residual"]
        assert int(back["iterations"]) == 1500

    def test_format_is_deterministic(self):
        assert format_metrics(self.VALUES) == format_metrics(dict(self.VALUES))


class TestPgm:
    def test_header_and_payload_size(self, tmp_path):
        rng = np.random.default_rng(6)
        field = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        path = tmp_path / "img.pgm"
        write_pgm(path, field)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n7 5\n255\n")
        assert len(raw) == len(b"P5\n7 5\n255\n") + 35

    def test_constant_zero_field(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_pgm(path, np.zeros((4, 4)))
        assert path.read_bytes().endswith(b"\x00" * 16)

    def test_peak_pixel_saturates(self, tmp_path):
        img = np.zeros((3, 3))
        img[1, 1] = 2.5
        path = tmp_path / "p.pgm"
        write_pgm(path, img)
        assert path.read_bytes()[-5] == 255
