"""Command line entry point.

Subcommands: simulate, reconstruct, baseline, eval, equivalence.  Each
takes ``--config <file>`` and an ``--out`` override; ``simulate`` also
takes ``--seed`` (noise seed), ``reconstruct`` and ``equivalence`` take
``--iters``.  Each output file's name and writer are here, in ``_run``.
Exit status: 0 success, 2 validation failure, unusable path or a grid
too large to allocate, 3 solver abort.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from dataclasses import replace
from functools import partial

from .admm import SolverAborted
from .dataset import (ContainerFormatError, Dataset, ReconstructionRecord,
                      atomic_write)
from .metrics import format_metrics, write_pgm, zero_fill_baseline
from .mri import separable_problem
from .pdhgm import equivalence_check
from .pipeline import (ConfigError, evaluate, load_config, mri_problem,
                       reconstruct, simulate)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="padmm",
        description="Joint MRI reconstruction experiments with "
                    "preconditioned ADMM / dual-first primal-dual solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "generate a synthetic dataset"),
        ("reconstruct", "run the solver on a dataset"),
        ("baseline", "zero-filling baseline reconstruction"),
        ("eval", "metrics for a reconstruction record"),
        ("equivalence", "ADMM vs dual-first iterate comparison"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", help="output directory override")
        if name == "simulate":
            p.add_argument("--seed", type=int, help="noise seed override")
        else:
            p.add_argument("--data", help="dataset file (default <out>/dataset.pad)")
        if name in ("reconstruct", "equivalence"):
            p.add_argument("--iters", type=int, help="iteration count override")
        if name == "eval":
            p.add_argument("--recon", help="record file (default <out>/recon.pad)")
    return parser


def _apply_overrides(cfg, args):
    if args.out is not None:
        cfg = replace(cfg, output=args.out)
    seed, iters = getattr(args, "seed", None), getattr(args, "iters", None)
    if seed is not None:
        cfg = replace(cfg, sampling=replace(cfg.sampling, noise_seed=seed))
    if iters is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, max_iterations=iters))
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # earlier filters (-W, pytest's) win; what passes is reported below
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", append=True)
        try:
            return _run(args)
        except (ConfigError, ContainerFormatError, MemoryError) as exc:
            print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return EXIT_VALIDATION
        except OSError as exc:  # on a path the flags or the config name
            where = f"{exc.filename}: " if exc.filename else ""
            print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except SolverAborted as exc:
            print(f"solver aborted: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        finally:
            sources = {}
            for w in caught:
                sources.setdefault((w.filename, w.lineno), []).append(w.message)
            for first, *more in sources.values():
                again = f" (seen {len(more) + 1} times)" if more else ""
                print(f"warning: {first}{again}", file=sys.stderr)


def _run(args) -> int:
    try:  # each settings class rejects a value out of range as it is built
        cfg = _apply_overrides(load_config(args.config), args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # atomic_write makes the directory, so a failed command makes none
    out = partial(os.path.join, cfg.output)

    if args.command == "simulate":
        dataset = simulate(cfg)
        dataset.save(out("dataset.pad"))
        print(f"dataset written to {out('dataset.pad')} "
              f"({dataset.n_coils} coils, fraction {dataset.fraction:.4f})")
        return EXIT_OK

    dataset = Dataset.load(args.data or out("dataset.pad"))
    if args.command == "reconstruct":
        where = cfg.output  # a file in the way is found before the solve
        while where and not os.path.exists(where):
            where = os.path.dirname(where)
        if where and not os.path.isdir(where):
            raise NotADirectoryError(errno.ENOTDIR, "Not a directory", where)
        record, report = reconstruct(dataset, cfg)
        record.save(out("recon.pad"))
        atomic_write(out("convergence.txt"), [report.to_text().encode()])
        write_pgm(out("recon_u.pgm"), record.u)
        for j, c in enumerate(record.coil_maps):
            write_pgm(out(f"recon_coil_{j}.pgm"), c)
        if report.aborted:
            raise SolverAborted(report.abort_message)
        print(f"reconstruction written to {out('recon.pad')} "
              f"({report.iterations} iterations)")
    elif args.command == "baseline":
        write_pgm(out("zerofill.pgm"), zero_fill_baseline(dataset.data))
        print(f"zero-filling baseline written to {out('zerofill.pgm')}")
    elif args.command == "eval":
        record = ReconstructionRecord.load(args.recon or out("recon.pad"))
        text = format_metrics(evaluate(record, dataset))
        atomic_write(out("metrics.txt"), [text.encode()])
        print(text, end="")
    else:  # equivalence
        iters = args.iters if args.iters is not None else 50
        problem = separable_problem(mri_problem(dataset, cfg))
        deviation = equivalence_check(problem, cfg.solver, iters)
        print(f"max relative iterate deviation over {iters} iterations: "
              f"{deviation:.3e}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
