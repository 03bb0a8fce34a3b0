import math
import struct

import numpy as np
import pytest
import yaml

from padmm.admm import ConvergenceReport
from padmm.cli import EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from padmm.dataset import ContainerFormatError, Dataset, ReconstructionRecord

from oracles import parse_metrics

BASE_CONFIG = {
    "phantom": {"size": 32},
    "coils": {"count": 2, "seed": 1},
    "sampling": {"fraction": 0.25, "turns": 4.0, "sigma": 0.05, "seed": 0},
    "solver": {"delta": 0.5, "iterations": 10, "algorithm": "admm",
               "power_iter_tol": 1e-6, "power_iter_max": 50},
    "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
}


@pytest.fixture
def workspace(tmp_path):
    cfg = dict(BASE_CONFIG)
    cfg["output"] = str(tmp_path / "out")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path, tmp_path / "out"


def test_simulate_writes_dataset(workspace, capsys):
    config, out = workspace
    assert main(["simulate", "--config", str(config)]) == EXIT_OK
    assert (out / "dataset.pad").exists()
    assert "dataset written" in capsys.readouterr().out
    ds = Dataset.load(out / "dataset.pad")
    assert ds.n_coils == 2
    assert 0.2 <= ds.fraction <= 0.3


def test_reconstruct_then_eval(workspace, capsys):
    config, out = workspace
    main(["simulate", "--config", str(config)])
    assert main(["reconstruct", "--config", str(config)]) == EXIT_OK
    assert (out / "recon.pad").exists()
    assert (out / "convergence.txt").exists()
    assert (out / "recon_u.pgm").exists()

    assert main(["eval", "--config", str(config)]) == EXIT_OK
    values = parse_metrics((out / "metrics.txt").read_text())
    assert set(values) == {"psnr_recon_db", "psnr_zerofill_db",
                           "final_residual", "iterations", "wall_ms"}
    assert int(values["iterations"]) == 10
    assert float(values["final_residual"]) > 0


def test_baseline_writes_image(workspace):
    config, out = workspace
    main(["simulate", "--config", str(config)])
    assert main(["baseline", "--config", str(config)]) == EXIT_OK
    assert (out / "zerofill.pgm").read_bytes().startswith(b"P5\n32 32\n")


def test_equivalence_reports_small_deviation(workspace, capsys):
    config, _ = workspace
    main(["simulate", "--config", str(config)])
    assert main(["equivalence", "--config", str(config),
                 "--iters", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    deviation = float(out.strip().rsplit(" ", 1)[-1])
    assert deviation <= 1e-8


def test_pdhgm_algorithm_selected_from_config(workspace, tmp_path):
    config, out = workspace
    raw = yaml.safe_load(config.read_text())
    raw["solver"]["algorithm"] = "pdhgm"
    config.write_text(yaml.safe_dump(raw))
    main(["simulate", "--config", str(config)])
    assert main(["reconstruct", "--config", str(config)]) == EXIT_OK
    assert ReconstructionRecord.load(out / "recon.pad").algorithm == "pdhgm"


def test_zero_iterations_keeps_flat_start(workspace):
    config, out = workspace
    main(["simulate", "--config", str(config)])
    assert main(["reconstruct", "--config", str(config),
                 "--iters", "0"]) == EXIT_OK
    rec = ReconstructionRecord.load(out / "recon.pad")
    assert np.all(rec.u == 1.0)
    assert rec.iterations == 0


def test_seed_override_changes_noise(workspace, tmp_path):
    config, out = workspace
    main(["simulate", "--config", str(config)])
    first = (out / "dataset.pad").read_bytes()
    main(["simulate", "--config", str(config), "--seed", "99"])
    assert (out / "dataset.pad").read_bytes() != first


def test_out_override_redirects(workspace, tmp_path):
    config, _ = workspace
    other = tmp_path / "elsewhere"
    assert main(["simulate", "--config", str(config),
                 "--out", str(other)]) == EXIT_OK
    assert (other / "dataset.pad").exists()


def _swap(old, new):
    """A dataset corruption that replaces the one occurrence of ``old``."""
    def corrupt(raw):
        assert raw.count(old) == 1
        return raw.replace(old, new)
    return corrupt


def _nan_kspace(raw):
    # the first k-space sample follows the header and the 32x32 mask
    at = raw.index(b"end-header\n") + len(b"end-header\n") + 32 * 32 * 16
    return raw[:at] + struct.pack("<d", math.nan) + raw[at + 8:]


class TestValidationFailures:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config",
                     str(tmp_path / "nope.yaml")]) == EXIT_VALIDATION

    def test_bad_algorithm_value(self, workspace):
        config, _ = workspace
        raw = yaml.safe_load(config.read_text())
        raw["solver"]["algorithm"] = "newton"
        config.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION

    def test_missing_dataset(self, workspace):
        config, _ = workspace
        assert main(["reconstruct", "--config", str(config)]) == EXIT_VALIDATION

    def test_missing_record_for_eval(self, workspace):
        config, _ = workspace
        main(["simulate", "--config", str(config)])
        assert main(["eval", "--config", str(config)]) == EXIT_VALIDATION

    def test_non_mapping_config(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- just\n- a\n- list\n")
        assert main(["simulate", "--config", str(path)]) == EXIT_VALIDATION

    def test_malformed_numbers(self, workspace):
        config, _ = workspace
        raw = yaml.safe_load(config.read_text())
        raw["solver"]["delta"] = "not-a-number"
        config.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION


    def test_non_finite_weight(self, workspace, capsys):
        config, _ = workspace
        main(["simulate", "--config", str(config)])
        raw = yaml.safe_load(config.read_text())
        raw["weights"]["lam"] = float("nan")
        config.write_text(yaml.safe_dump(raw))
        assert main(["reconstruct", "--config", str(config)]) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err

    def test_unreachable_sampling_fraction(self, workspace, capsys):
        config, _ = workspace
        raw = yaml.safe_load(config.read_text())
        raw["phantom"]["size"] = 48
        raw["sampling"]["turns"] = 12.0
        config.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
        assert "unreachable" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        pytest.param(_swap(b"sigma: ", b"sigma: \xff\xfe"), id="non-utf8"),
        pytest.param(_swap(b"end-header", b"block: x\nend-header"),
                     id="block-x"),
        pytest.param(_swap(b"end-header", b"block: x a b\nend-header"),
                     id="block-x-a-b"),
        pytest.param(_swap(b"end-header", b"block: x -1 4\nend-header"),
                     id="negative-shape"),
        pytest.param(_swap(b"end-header",
                           b"block: x 100000 100000\nend-header"),
                     id="shape-beyond-file"),
        pytest.param(_swap(b"\nn: 2\n", b"\nn: 3\n"), id="missing-block"),
        pytest.param(_swap(b"\nn: 2\n", b"\nn: 0\n"), id="no-coils"),
        pytest.param(_swap(b"block: kspace_0 32 32", b"block: kspace_0 16 32"),
                     id="kspace-shape"),
        pytest.param(_nan_kspace, id="nan-kspace"),
    ])
    def test_malformed_dataset_header(self, workspace, capsys, corrupt):
        config, out = workspace
        main(["simulate", "--config", str(config)])
        path = out / "dataset.pad"
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ContainerFormatError):
            Dataset.load(path)
        for command in ("reconstruct", "baseline", "eval", "equivalence"):
            capsys.readouterr()
            assert main([command, "--config", str(config)]) == EXIT_VALIDATION
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("u, coil, loads", [
        pytest.param(np.ones((48, 48)), np.ones((48, 48)), True,
                     id="other-grid"),
        pytest.param(np.ones((32, 32)), np.ones((16, 32)), False,
                     id="coil-shape"),
        pytest.param(np.full((32, 32), np.nan), np.ones((32, 32)), False,
                     id="nan-u"),
    ])
    def test_malformed_record(self, workspace, capsys, u, coil, loads):
        config, out = workspace
        main(["simulate", "--config", str(config)])
        path = out / "other.pad"
        ReconstructionRecord(u=u, coil_maps=[coil] * 2, algorithm="admm",
                             iterations=1, final_residual=1.0,
                             wall_ms=1.0).save(path)
        if not loads:
            with pytest.raises(ContainerFormatError):
                ReconstructionRecord.load(path)
        capsys.readouterr()
        assert main(["eval", "--config", str(config),
                     "--recon", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("section, key", [
        ("solver", "iteration"), (None, "phantm"), ("weights", "tv_shrink"),
    ])
    def test_unknown_config_key(self, workspace, capsys, section, key):
        config, _ = workspace
        raw = yaml.safe_load(config.read_text())
        (raw[section] if section else raw)[key] = 10
        config.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("reconstruct", "--seed"), ("baseline", "--seed"), ("eval", "--seed"),
        ("equivalence", "--seed"), ("simulate", "--iters"),
        ("baseline", "--iters"), ("eval", "--iters"),
    ])
    def test_flag_the_command_does_not_use(self, workspace, command, flag):
        config, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), flag, "3"])
        assert exc.value.code == EXIT_VALIDATION


@pytest.mark.parametrize("algorithm, recon_overflows", [
    pytest.param("admm", False, id="admm"),
    pytest.param("pdhgm", True, id="pdhgm"),
])
def test_divergence_exits_3_and_eval_still_reports(workspace, capsys, recwarn,
                                                   algorithm, recon_overflows):
    config, out = workspace
    raw = yaml.safe_load(config.read_text())
    raw["solver"]["algorithm"] = algorithm
    config.write_text(yaml.safe_dump(raw))
    main(["simulate", "--config", str(config)])
    path = out / "dataset.pad"
    dataset = Dataset.load(path)
    dataset.data = [1e300 * f for f in dataset.data]
    dataset.save(path)
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(config)]) == EXIT_SOLVER
    assert "non-finite iterate" in capsys.readouterr().err
    assert main(["eval", "--config", str(config)]) == EXIT_OK
    values = parse_metrics((out / "metrics.txt").read_text())
    assert float(values["psnr_zerofill_db"]) == -math.inf
    assert (float(values["psnr_recon_db"]) == -math.inf) == recon_overflows
    # the abort message is the one report of the divergence
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_solver_abort_exit_code(workspace, monkeypatch, capsys):
    config, _ = workspace
    main(["simulate", "--config", str(config)])

    def fake_reconstruct(dataset, cfg):
        report = ConvergenceReport(
            iterations=3, residuals=[1.0], tau1s=[], tau2s=[],
            wall_ms=1.0, aborted=True,
            abort_message="non-finite iterate at iteration 4",
        )
        record = ReconstructionRecord(
            u=np.ones((32, 32), dtype=complex),
            coil_maps=[np.ones((32, 32), dtype=complex)] * 2,
            algorithm="admm", iterations=3,
            final_residual=1.0, wall_ms=1.0,
        )
        return record, report

    monkeypatch.setattr("padmm.cli.reconstruct", fake_reconstruct)
    assert main(["reconstruct", "--config", str(config)]) == EXIT_SOLVER
    assert "solver aborted" in capsys.readouterr().err
