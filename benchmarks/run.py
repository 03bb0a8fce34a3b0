"""padmm benchmark: end-to-end and per-layer metrics of one workload.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload cold-admm-96 --seed 1 \
        --seconds 30 --trace 0

With ``--trace 0`` the solve is timed untraced and the end-to-end
metrics of BENCHMARK.json are printed.  With ``--trace 1`` untraced and
traced solves alternate, and the per-layer metrics are printed.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details,
provenance and the span file go to ``benchmarks/results/``.  The exit
status is 0 only when every output check passed.

``--smoke`` runs two iterations per solve, a single solve and no
reference comparison; the benchmark's tests use it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from provenance import provenance, single_threaded

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 15
WORKLOAD_NAMES = ("cold-admm-96", "late-pdhgm-96", "cold-admm-190")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _import_package():
    """Put the checkout's ``src`` first on the path and import padmm."""
    src = ROOT / "src"
    if not (src / "padmm" / "__init__.py").is_file():
        raise SystemExit(f"error: no padmm sources under {src}")
    sys.path.insert(0, str(src))
    import padmm

    if Path(padmm.__file__).resolve().parent != (src / "padmm").resolve():
        raise SystemExit(f"error: imported padmm from {padmm.__file__}")


def _spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} not found")
    return json.loads(path.read_text())


# --- measuring ---------------------------------------------------------------

def _same_iterate(a, b) -> bool:
    import numpy as np

    return all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))


def _layer_metrics(tracers, setup_rows, inputs, ratio, aborts):
    """Per-layer metrics of BENCHMARK.json from the traced solves."""
    summaries = [t.summary() for t in tracers]

    def time_of(name, key="self_s"):
        return statistics.median(s.get(name, {}).get(key, 0.0) for s in summaries)

    def setup_time(name):
        return statistics.median(row[name] for row in setup_rows)

    calls, c = tracers[0].counts()
    out = {
        "opnorm.calls": calls["opnorm"],
        "opnorm.power_steps": c["opnorm.power_steps"],
        "opnorm.capped_calls": c["opnorm.capped_calls"],
        "opnorm.converged_ratio": c["opnorm.converged"] / calls["opnorm"],
        "opnorm.self_s": time_of("opnorm"),
        "opnorm.total_s": time_of("opnorm", "total_s"),
        "mri.jac_build.total_s": time_of("mri.jac_build", "total_s"),
        "fields.bytes_computed": c["fields.bytes_computed"],
        "prox.conjugate.calls": calls.get("prox.conjugate", 0),
        "blocks.ops": calls["blocks"],
        "blocks.self_s": time_of("blocks"),
        "solver.step.self_s": time_of("solver.step"),
        "solver.iterations": calls["solver.step"],
        "solver.aborts": aborts,
        "pipeline.simulate_s": setup_time("pipeline.simulate"),
        "dataset.save_s": setup_time("dataset.save"),
        "dataset.load_s": setup_time("dataset.load"),
        "dataset.bytes": inputs.dataset_bytes,
        "trace.overhead_ratio": ratio,
    }
    for name in ("mri.jac_apply", "mri.jac_adjoint", "mri.evaluate",
                 "fields.grad", "fields.grad_adjoint", "fields.dft2",
                 "fields.idft2", "prox.fidelity", "prox.group_shrink",
                 "prox.global_shrink"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = time_of(name)
    return out


class Checks:
    """Attempts (set-ups and solves) and the problems found in each."""

    def __init__(self):
        self.attempted, self.failed, self.failures = 0, 0, []

    def record(self, what, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{what}: {p}" for p in problems]


def run(args, spec):
    """Set up and measure one workload; returns (metrics, checks, details)."""
    import numpy as np

    import spans
    from workloads import WORKLOADS, check_solve, quality, setup, solve

    workload = WORKLOADS[args.workload]
    iterations = 2 if args.smoke else workload.iterations
    min_rounds = 1 if args.smoke or args.trace else workload.min_solves
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    reference = None
    if not args.smoke:
        reference = json.loads((BENCH_DIR / "reference.json").read_text())[workload.name]
    RESULTS.mkdir(parents=True, exist_ok=True)
    checks = Checks()

    setup_times, setup_rows = [], []
    for _ in range(SETUP_REPEATS):
        tracer = spans.Tracer() if args.trace else None
        t0 = time.perf_counter()
        inputs = setup(workload, args.seed,
                       RESULTS / "work" / f"{workload.name}-seed{args.seed}",
                       tracer.span if tracer else None)
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            setup_rows.append({k: v["total_s"] for k, v in tracer.summary().items()})
        checks.record("set-up", [] if inputs.round_trip_ok else
                      ["dataset save -> load -> save is not byte-identical"])

    def checked(what, result, problems):
        if not _same_iterate(first_u, result.u):
            problems.append("final iterate differs from the first solve's")
        checks.record(what, problems + check_solve(
            result, iterations, quality(inputs, result.u), reference, bounds))

    walls, iter_s, traced_walls, tracers, aborts = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        elapsed, rounds = time.perf_counter() - start, len(walls)
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
            break
        problems = [f"{name} is patched during the untraced solve"
                    for name in spans.pristine()]
        result = solve(inputs, workload, iterations)
        walls.append(result.wall_s)
        iter_s += result.iter_s
        if not rounds:
            first_u, values = result.u, quality(inputs, result.u)
        checked("solve", result, problems)
        if not args.trace:
            continue
        tracer = spans.Tracer()
        with spans.layers(tracer):
            traced = solve(inputs, workload, iterations,
                           problem=spans.traced_problem(inputs.problem, tracer),
                           wrap_step=lambda f: tracer.wrap(f, "solver.step"))
        problems = [f"{name} is still patched after the traced solve"
                    for name in spans.pristine()]
        if tracers and tracer.counts() != tracers[0].counts():
            problems.append("span or counter counts differ between traced solves")
        checked("traced solve", traced, problems)
        traced_walls.append(traced.wall_s)
        aborts += traced.aborted
        tracers.append(tracer)

    details = {
        "workload": workload.name,
        "iterations_per_solve": iterations,
        "solves": len(walls),
        "traced_solves": len(traced_walls),
        "iteration_samples": len(iter_s),
        "tail_percentile": 0 if args.smoke else workload.tail_percentile,
        "setup_times_s": setup_times,
        "solve_times_s": walls,
        "traced_solve_times_s": traced_walls,
        "quality": values,
        "failures": checks.failures,
    }
    if args.trace:
        ratio = statistics.median(traced_walls) / statistics.median(walls)
        metrics = _layer_metrics(tracers, setup_rows, inputs, ratio, aborts)
        path = RESULTS / f"{workload.name}-seed{args.seed}-spans.json.gz"
        tracers[0].write(path, {"workload": workload.name, "seed": args.seed})
        details["span_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(walls),
            "iter_ms_p50": float(np.median(iter_s)) * 1e3,
            "iter_ms_tail": float(np.percentile(
                iter_s, details["tail_percentile"])) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **values,
            "success_ratio": 1 - checks.failed / checks.attempted,
        }
    return metrics, checks, details


def main(argv=None) -> int:
    args = _parse(argv)
    single_threaded()
    _import_package()
    spec = _spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics, checks, details = run(args, spec)
    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": provenance(args.seed),
                               "details": details, "result": result},
                              indent=1) + "\n")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"details: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
