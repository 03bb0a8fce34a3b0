"""Tests of the benchmark itself: metric output, counts, spans, fixtures.

Run from the root of a checkout:

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_and_counts_repeat(workload):
    timed = result_of(smoke(workload, 0))
    traced = [result_of(smoke(workload, 1)) for _ in range(2)]
    for result, section in ((timed, "end_to_end"), (traced[0], "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in ("count", "bytes")} for r in traced]
    assert counts[0] == counts[1]
    assert counts[0]["opnorm.power_steps"] > 0
    assert counts[0]["solver.iterations"] == 2


def test_self_time_subtracts_merged_direct_children():
    # root [0, 10] with children a [1, 4], b [3, 6] (overlapping a) and
    # c [8, 12] (clipped at 10); a has a grandchild g [2, 3].
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 3.0, 4.0, 1.0]

    tracer = spans.Tracer()
    tracer.names = ["root", "k", "k", "c", "g"]
    tracer.starts, tracer.ends, tracer.parents = starts, ends, parents
    summary = tracer.summary()
    assert summary["k"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert summary["root"]["self_s"] == 3.0


def test_layers_are_restored_even_after_an_error():
    import padmm.mri
    from padmm.fields import grad

    assert spans.pristine() == []
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with spans.layers(tracer):
            assert "padmm.mri.grad" in spans.pristine()
            padmm.mri.grad(np.zeros((3, 3), complex))
            1 / 0
    assert spans.pristine() == []
    assert padmm.mri.grad is grad
    assert tracer.summary()["fields.grad"]["calls"] == 1


def test_changed_fixture_fails_loudly(tmp_path, monkeypatch):
    pad, manifest = workloads.fixture_paths("late_pdhgm_96")
    shutil.copy(manifest, tmp_path / manifest.name)
    data = bytearray(pad.read_bytes())
    data[-1] ^= 1
    (tmp_path / pad.name).write_bytes(bytes(data))
    monkeypatch.setattr(workloads, "FIXTURE_DIR", tmp_path)
    with pytest.raises(workloads.FixtureError, match="sha256"):
        workloads.load_state("late_pdhgm_96", (), ())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
