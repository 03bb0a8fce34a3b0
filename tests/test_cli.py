import ast
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import padmm
import padmm.pdhgm
from padmm.admm import ConvergenceReport
from padmm.cli import EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from padmm.dataset import (MAGIC_DATASET, MAGIC_RECORD, ContainerFormatError,
                           Dataset, ReconstructionRecord, read_container)
from padmm.pipeline import load_config

from oracles import parse_metrics, sign_flipped_conjugate_apply

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


def test_equivalence_reports_a_sign_flipped_moreau_step(workspace, capsys,
                                                         monkeypatch):
    # a wrong dual-first mu-half, which the ADMM with v kept never runs
    config, _ = workspace
    main(["simulate", "--config", str(config)])
    monkeypatch.setattr(padmm.pdhgm, "conjugate_apply",
                        sign_flipped_conjugate_apply)
    assert main(["equivalence", "--config", str(config),
                 "--iters", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    deviation = float(out.strip().rsplit(" ", 1)[-1])
    assert deviation > 1e-8


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


def test_readme_walkthrough_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "experiment.yaml"
    path.write_text(block)
    cfg = load_config(path)
    assert cfg.phantom.size == 96
    assert cfg.coils == 4
    assert cfg.solver.max_iterations == 1500


def test_readme_lists_the_header_keys(workspace):
    # the File format section names each file's metadata keys in the
    # order ``save`` writes them
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = dict(re.findall(r"^- `(\w+\.pad)`: (.+)$", readme, re.M))
    config, out = workspace
    main(["simulate", "--config", str(config)])
    main(["reconstruct", "--config", str(config)])
    for name, magic in (("dataset.pad", MAGIC_DATASET),
                        ("recon.pad", MAGIC_RECORD)):
        meta, _ = read_container(out / name, magic)
        assert re.findall(r"`(\w+)`", listed[name]) == list(meta)


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


def _imaginary_mask(raw):
    # the mask block comes first; its first sample's imaginary part
    at = raw.index(b"end-header\n") + len(b"end-header\n") + 8
    return raw[:at] + struct.pack("<d", 1.0) + raw[at + 8:]


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

    @pytest.mark.parametrize("section, key", [
        ("phantom", "size"), ("coils", "count"), ("coils", "seed"),
        ("sampling", "seed"), ("solver", "iterations"),
        ("solver", "power_iter_max"), ("solver", "seed"),
    ])
    def test_integer_key_at_infinity(self, workspace, capsys, section, key):
        # int(inf) raises OverflowError, which the reader once let through
        config, out = workspace
        raw = yaml.safe_load(config.read_text())
        raw[section][key] = float("inf")
        config.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            "error: malformed configuration: cannot convert float infinity")
        assert not (out / "dataset.pad").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("sampling", "sigma", float("nan")),
        ("sampling", "sigma", float("inf")),
        ("sampling", "turns", float("nan")),
        ("sampling", "turns", float("inf")),
        ("sampling", "turns", 0.0),
        ("phantom", "size", 0),
        ("phantom", "size", -4),
        ("coils", "seed", -1),
        ("sampling", "seed", -1),
        ("solver", "seed", -1),
        ("weights", "lam", [0.0621] * 3),  # the config sets two coils
        ("weights", "alpha", []),
        ("weights", "lam", float("nan")),
        ("weights", "alpha", -1.0),
        ("weights", "alpha0", float("inf")),
        ("weights", "lam", [0.0621, -0.0621]),
    ])
    def test_out_of_range_simulation_value(self, workspace, capsys,
                                           section, key, value):
        config, out = workspace
        raw = yaml.safe_load(config.read_text())
        raw[section][key] = value
        config.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (out / "dataset.pad").exists()

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
        pytest.param(_imaginary_mask, id="imaginary-mask"),
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

    @pytest.mark.parametrize("command", [
        "reconstruct", "baseline", "eval", "equivalence"])
    def test_dataset_with_empty_fields(self, workspace, capsys, command):
        config, out = workspace
        empty = np.zeros((0, 0))
        Dataset(mask=empty, data=[empty] * 2, sigma=0.05, noise_seed=0,
                coil_seed=1, fraction=0.25, phantom=empty,
                coil_maps=[empty] * 2).save(out / "dataset.pad")
        with pytest.raises(ContainerFormatError):
            Dataset.load(out / "dataset.pad")
        assert main([command, "--config", str(config)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("u, coil, loads", [
        pytest.param(np.ones((48, 48)), np.ones((48, 48)), True,
                     id="other-grid"),
        pytest.param(np.ones((32, 32)), np.ones((16, 32)), False,
                     id="coil-shape"),
        pytest.param(np.full((32, 32), np.nan), np.ones((32, 32)), False,
                     id="nan-u"),
        pytest.param(np.ones((0, 0)), np.ones((0, 0)), False, id="empty"),
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
        ("phantom", "sizes"), ("coils", "counts"), ("sampling", "fractoin"),
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


def _files(root):
    """Every file and directory under ``root``, with a file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def _drop_coil_0(raw):
    # the blocks are mask, kspace_0, kspace_1, phantom, coil_0, coil_1
    raw = _swap(b"block: coil_0 32 32\n", b"")(raw)
    at = raw.index(b"end-header\n") + len(b"end-header\n") + 4 * 32 * 32 * 16
    return raw[:at] + raw[at + 32 * 32 * 16:]


def _extra_coil(raw):
    raw = _swap(b"end-header\n", b"block: coil_7 32 32\nend-header\n")(raw)
    return raw + bytes(32 * 32 * 16)


class TestInputsOnceMisread:
    """Inputs the CLI once accepted and misread, or met with a traceback:
    each now exits 2 with one ``error:`` line and writes nothing."""

    @pytest.mark.parametrize("key, value", [
        ("phantom.size", 32.9), ("solver.iterations", 2.9),
        ("coils.count", True), ("coils.count", "3"), ("coils.seed", "1"),
        ("sampling.seed", False), ("solver.power_iter_max", "50"),
        ("solver.seed", 0.5), ("sampling.sigma", "0.05"),
        ("sampling.fraction", True), ("solver.delta", True),
        ("solver.theta", "0.9"), ("solver.power_iter_tol", False),
        ("weights.alpha0", "0.06"), ("weights.lam", True),
        ("weights.lam", [0.06, "0.06"]), ("weights.alpha", "0.9"),
        ("weights.alpha", [True, 0.9]), ("solver.algorithm", True),
        ("output", 5),
    ])
    def test_wrong_typed_config_value(self, workspace, capsys, monkeypatch,
                                      key, value):
        config, _ = workspace
        monkeypatch.chdir(config.parent)  # where `output: 5` would write
        raw = yaml.safe_load(config.read_text())
        *section, name = key.split(".")
        (raw[section[0]] if section else raw)[name] = value
        config.write_text(yaml.safe_dump(raw))
        before = _files(config.parent)
        assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
        err = _one_error_line(capsys)
        assert err.startswith("error: malformed configuration: ")
        assert err.endswith(f" ({key})\n")
        assert _files(config.parent) == before

    def test_noise_that_overflows_the_k_space(self, workspace, capsys):
        config, out = workspace
        raw = yaml.safe_load(config.read_text())
        raw["phantom"]["size"], raw["coils"]["count"] = 2, 8
        raw["sampling"].update(fraction=1.0, sigma=1.7e308)
        config.write_text(yaml.safe_dump(raw))
        before = _files(config.parent)
        assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
        assert _one_error_line(capsys).startswith("error: sampling.sigma ")
        assert _files(config.parent) == before

    def test_weight_that_overflows_on_the_grid(self, workspace, capsys):
        config, out = workspace
        raw = yaml.safe_load(config.read_text())
        raw["weights"]["lam"] = 1.0e306  # finite, but not times 32 * 32
        config.write_text(yaml.safe_dump(raw))
        assert main(["simulate", "--config", str(config)]) == EXIT_OK
        before = _files(config.parent)
        for command in ("reconstruct", "equivalence"):
            capsys.readouterr()
            assert main([command, "--config", str(config)]) == EXIT_VALIDATION
            assert _one_error_line(capsys) == (
                "error: weights.lam 1e+306 overflows when scaled to the "
                "32x32 grid\n")
        assert _files(config.parent) == before

    def test_equivalence_creates_no_directory(self, workspace, capsys):
        config, out = workspace
        assert main(["equivalence", "--config", str(config), "--out",
                     str(config.parent / "new" / "dir")]) == EXIT_VALIDATION
        _one_error_line(capsys)
        assert not (config.parent / "new").exists()
        main(["simulate", "--config", str(config)])
        assert main(["equivalence", "--config", str(config), "--iters", "1",
                     "--data", str(out / "dataset.pad"), "--out",
                     str(config.parent / "new" / "dir")]) == EXIT_OK
        assert not (config.parent / "new").exists()

    def test_out_file_stops_reconstruct_before_the_solve(
            self, workspace, capsys, monkeypatch):
        config, out = workspace
        main(["simulate", "--config", str(config)])
        bad = config.parent / "file"
        bad.write_text("not a directory")
        monkeypatch.setattr("padmm.cli.reconstruct",
                            lambda *_: pytest.fail("the solve started"))
        before = _files(config.parent)
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(config), "--data",
                     str(out / "dataset.pad"), "--out", str(bad)]) \
            == EXIT_VALIDATION
        assert _one_error_line(capsys) == f"error: {bad}: Not a directory\n"
        assert _files(config.parent) == before

    def test_out_under_a_file_stops_reconstruct_before_the_solve(
            self, workspace, capsys, monkeypatch):
        config, out = workspace
        main(["simulate", "--config", str(config)])
        bad = config.parent / "file"
        bad.write_text("not a directory")
        monkeypatch.setattr("padmm.cli.reconstruct",
                            lambda *_: pytest.fail("the solve started"))
        before = _files(config.parent)
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(config), "--data",
                     str(out / "dataset.pad"), "--iters", "100000",
                     "--out", str(bad / "sub" / "dir")]) == EXIT_VALIDATION
        assert _one_error_line(capsys) == f"error: {bad}: Not a directory\n"
        assert _files(config.parent) == before

    @pytest.mark.parametrize("command, flag, kind", [
        ("simulate", "--config", "dir"), ("simulate", "--out", "file"),
        ("reconstruct", "--data", "dir"), ("eval", "--recon", "dir"),
    ])
    def test_unusable_path(self, workspace, capsys, command, flag, kind):
        config, out = workspace
        main(["simulate", "--config", str(config)])
        bad = config.parent / kind
        if kind == "dir":
            bad.mkdir()
        else:
            bad.write_text("not a directory")
        argv = [command, "--config", str(config), flag, str(bad)]
        if flag == "--config":
            argv = [command, flag, str(bad)]
        before = _files(config.parent)
        capsys.readouterr()
        assert main(argv) == EXIT_VALIDATION
        assert re.fullmatch(rf"error: {re.escape(str(bad))}: [^\n]+\n",
                            _one_error_line(capsys))
        assert _files(config.parent) == before

    @pytest.mark.parametrize("old, new", [
        pytest.param(b"admm", b"\xffdmm", id="not-utf8"),
        pytest.param(b"phantom:", b"phantom: [", id="not-yaml"),
    ])
    def test_unreadable_config(self, workspace, capsys, old, new):
        config, _ = workspace
        config.write_bytes(_swap(old, new)(config.read_bytes()))
        before = _files(config.parent)
        assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
        assert _one_error_line(capsys).startswith("error: cannot read config")
        assert _files(config.parent) == before

    @pytest.mark.parametrize("name, corrupt", [
        pytest.param("dataset.pad", lambda raw: raw + bytes(64),
                     id="trailing-bytes"),
        pytest.param("dataset.pad", _swap(b"block: kspace_0 32 32\n",
                                          b"block: kspace_0 32 32\n" * 2),
                     id="repeated-block"),
        pytest.param("dataset.pad", _swap(b"\nn: 2\n", b"\nn: 2\nn: 2\n"),
                     id="repeated-key"),
        pytest.param("dataset.pad", _swap(b"\nn: 2\n", b"\nn: 1\n"),
                     id="fewer-coils-than-blocks"),
        pytest.param("dataset.pad", _drop_coil_0, id="some-coil-maps"),
        pytest.param("recon.pad", _extra_coil, id="record-extra-block"),
    ])
    def test_container_with_unread_bytes(self, workspace, capsys, name,
                                         corrupt):
        config, out = workspace
        main(["simulate", "--config", str(config)])
        main(["reconstruct", "--config", str(config)])
        path = out / name
        path.write_bytes(corrupt(path.read_bytes()))
        load, command = ((Dataset.load, "reconstruct") if name == "dataset.pad"
                         else (ReconstructionRecord.load, "eval"))
        with pytest.raises(ContainerFormatError):
            load(path)
        before = _files(config.parent)
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == EXIT_VALIDATION
        _one_error_line(capsys)
        assert _files(config.parent) == before

    @pytest.mark.parametrize("coils, old, new", [
        pytest.param(0, b"\nn: 0\n", b"\nn: 0\n", id="no-coils"),
        pytest.param(0, b"\nn: 0\n", b"\nn: -1\n", id="negative-coils"),
        pytest.param(2, b"\niterations: 1\n", b"\niterations: -7\n",
                     id="negative-iterations"),
    ])
    def test_record_header_no_run_writes(self, workspace, capsys, coils, old,
                                         new):
        config, out = workspace
        main(["simulate", "--config", str(config)])
        path = out / "other.pad"
        ReconstructionRecord(u=np.ones((32, 32)),
                             coil_maps=[np.ones((32, 32))] * coils,
                             algorithm="admm", iterations=1,
                             final_residual=1.0, wall_ms=1.0).save(path)
        path.write_bytes(_swap(old, new)(path.read_bytes()))
        with pytest.raises(ContainerFormatError):
            ReconstructionRecord.load(path)
        before = _files(config.parent)
        capsys.readouterr()
        assert main(["eval", "--config", str(config),
                     "--recon", str(path)]) == EXIT_VALIDATION
        _one_error_line(capsys)
        assert _files(config.parent) == before


def test_the_package_binds_only_its_version():
    # names are imported from their modules; ``padmm`` re-exports none
    tree = ast.parse(Path(padmm.__file__).read_text())
    assert [type(node) for node in tree.body] == [ast.Expr, ast.Assign]
    assert [t.id for t in tree.body[1].targets] == ["__version__"]


@pytest.mark.parametrize("algorithm", ["admm", "pdhgm"])
def test_divergence_exits_3_and_eval_still_reports(workspace, capsys, recwarn,
                                                   algorithm):
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
    err = capsys.readouterr().err
    assert "non-finite iterate at iteration 1" in err
    assert "warning:" not in err
    # the first step's residual overflows, so no step is accepted and
    # the record holds the flat start
    convergence = (out / "convergence.txt").read_text()
    assert "iterations: 0\n" in convergence
    assert "final_residual: nan\n" in convergence
    assert "inf" not in convergence
    assert main(["eval", "--config", str(config)]) == EXIT_OK
    values = parse_metrics((out / "metrics.txt").read_text())
    assert int(values["iterations"]) == 0
    assert float(values["psnr_zerofill_db"]) == -math.inf
    assert math.isfinite(float(values["psnr_recon_db"]))
    # the abort message is the one report of the divergence
    assert "warning:" not in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_equivalence_on_diverging_data_exits_3(workspace, capsys, recwarn):
    config, out = workspace
    main(["simulate", "--config", str(config)])
    path = out / "dataset.pad"
    dataset = Dataset.load(path)
    dataset.data = [1e300 * f for f in dataset.data]
    dataset.save(path)
    capsys.readouterr()
    assert main(["equivalence", "--config", str(config),
                 "--iters", "5"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == ("solver aborted: non-finite iterate at "
                            "iteration 1\n")
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_solver_abort_exit_code(workspace, monkeypatch, capsys):
    config, _ = workspace
    main(["simulate", "--config", str(config)])

    def fake_reconstruct(dataset, cfg):
        report = ConvergenceReport(
            iterations=3, residuals=[1.0], wall_ms=1.0,
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


@pytest.fixture
def capped(tmp_path):
    """A dataset and a config whose power iterations run out of budget."""
    path = tmp_path / "capped.yaml"
    path.write_text(yaml.safe_dump({
        "phantom": {"size": 16}, "coils": {"count": 2},
        "sampling": {"turns": 3.0},
        "solver": {"iterations": 3, "power_iter_max": 2},
        "output": str(tmp_path / "out"),
    }))
    assert main(["simulate", "--config", str(path)]) == EXIT_OK
    return path


def test_warnings_reach_stderr_once_per_source(capped):
    # a fresh interpreter, so the default warning filters apply
    src = str(Path(padmm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "padmm.cli", "reconstruct",
         "--config", str(capped)],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == EXIT_OK
    assert re.fullmatch(
        r"warning: power iteration did not converge in 2 iterations "
        r"\(relative change \S+, tol 1\.00e-07\) \(seen 3 times\)\n",
        proc.stderr), proc.stderr


def test_warning_filters_set_before_the_cli_still_apply(capped):
    # the suite turns RuntimeWarning into an error, and so must a caller
    # of main() be able to
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="power iteration"):
            main(["reconstruct", "--config", str(capped)])


def test_grid_too_large_to_allocate_exits_2(tmp_path):
    # a fresh interpreter under a 4 GiB address-space cap, so the phantom
    # allocation fails at once instead of overcommitting
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    config = tmp_path / "huge.yaml"
    config.write_text(yaml.safe_dump({"phantom": {"size": 1000000},
                                      "output": str(tmp_path / "out")}))
    src = str(Path(padmm.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "padmm.cli", "simulate", "--config", str(config)],
        capture_output=True, text=True, env=env, check=False,
        preexec_fn=cap_address_space)
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", [2 ** 63, 2 ** 64])
def test_grid_past_numpy_byte_count_exits_2(tmp_path, capsys, size):
    # the field's byte count is checked before numpy is asked for the
    # grid: 2**63 overflows an index, 2**64 exceeds numpy's maximum size
    config = tmp_path / "size.yaml"
    config.write_text(yaml.safe_dump({
        "phantom": {"size": size}, "coils": {"count": 2},
        "output": str(tmp_path / "out")}))
    assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: phantom.size ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("turns", [1.0e16, 1.0e308])
def test_spiral_too_long_to_sample_exits_2(tmp_path, capsys, turns):
    # the sample count is checked before numpy is asked for the samples:
    # 1e16 turns are more than an array can hold, 1e308 overflow to inf
    config = tmp_path / "turns.yaml"
    config.write_text(yaml.safe_dump({
        "phantom": {"size": 16}, "coils": {"count": 2},
        "sampling": {"turns": turns}, "output": str(tmp_path / "out")}))
    assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: sampling.turns ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
