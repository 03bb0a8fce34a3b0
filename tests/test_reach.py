"""Every function in ``src/padmm`` is reached by a CLI run, or is listed
here with the reason it is not.

The five commands run on small configs (both algorithms, scalar and
per-coil weights) under a function-entry tracer.  A function that only
tests reach must join ``UNREACHED`` with its reason, or this test fails;
so must an entry that a CLI run starts to reach leave it."""

import importlib
import inspect
import sys
from pathlib import Path

import yaml

import padmm
from padmm.cli import EXIT_OK, main

SRC = Path(padmm.__file__).resolve().parent

# "module:qualname" -> why no CLI run calls it
UNREACHED = {
    "admm:Solver.step": "abstract",
    "constraint:NonlinearConstraint.evaluate": "abstract",
    "constraint:NonlinearConstraint.jac_u": "abstract",
    "constraint:NonlinearConstraint.jac_v": "abstract",
    "constraint:SeparableOperator.evaluate": "abstract",
    "constraint:SeparableOperator.jac": "abstract",
    "prox:ProxOp.apply": "abstract",
    "prox:ProxOp.penalty": "abstract",
    "blocks:BlockVector.__repr__": "debugging aid",
    "blocks:BlockVector.__add__":
        "BlockVector arithmetic of the test oracles and G's remainder test",
    "blocks:BlockVector.inner": "the adjoint checks of the tests",
    "mri:CoilGradOperator.jac.<locals>.apply":
        "no step applies A, only A* and A*A (criterion 1 checks it)",
    "admm:extrapolate": "fallback for maps without `adjoint_extrapolated`",
    "opnorm:estimate_opnorm.<locals>.<lambda>":
        "composed adjoint(apply(.)) fallback for maps without `normal`",
    "pdhgm:PdhgmSolver.run.<locals>.<lambda>":
        "the (u, mu) callback adapter, which benchmarks/workloads.py uses",
    "prox:FourierFidelityProx.penalty":
        "objective of the tests and the benchmark only",
    "prox:GroupShrinkProx.penalty": "objective of the tests and the benchmark only",
    "prox:GlobalShrinkProx.penalty": "objective of the tests and the benchmark only",
    "prox:IdentityProx.penalty": "objective of the tests and the benchmark only",
    "prox:SeparableSumProx.penalty": "objective of the tests and the benchmark only",
}

CONFIG = {
    "phantom": {"size": 16},
    "coils": {"count": 2, "seed": 1},
    "sampling": {"fraction": 0.3, "turns": 3.0, "sigma": 0.05, "seed": 0},
    "solver": {"delta": 0.5, "iterations": 3},
    "weights": {"lam": 0.0621, "alpha0": 0.062, "alpha": 0.9317},
}
COMMANDS = (["simulate"], ["reconstruct"], ["baseline"], ["eval"],
            ["equivalence", "--iters", "3"])


def name_of(code):
    """"module:qualname", with the comprehension scopes that Python 3.11
    names (a lambda in a list comprehension) and 3.12 inlines left out."""
    qualname = code.co_qualname
    for scope in ("<listcomp>", "<dictcomp>", "<setcomp>"):
        qualname = qualname.replace(f".{scope}", "")
    return f"{Path(code.co_filename).stem}:{qualname}"


def defined_functions():
    """"module:qualname" of every function and lambda in the package,
    from its compiled sources.  Module and class bodies run at import,
    and comprehensions are left out, because whether they are functions
    depends on the Python version."""
    names = set()
    for path in SRC.glob("*.py"):
        pending = [compile(path.read_text(), str(path), "exec")]
        while pending:
            code = pending.pop()
            pending += [c for c in code.co_consts if hasattr(c, "co_code")]
            if code.co_flags & inspect.CO_NEWLOCALS and (
                    code.co_name == "<lambda>"
                    or not code.co_name.startswith("<")):
                names.add(name_of(code))
    return names


def reached_by_cli(tmp_path):
    """The package functions entered while the five commands run on each
    config, as "module:qualname"."""
    reached = set()

    def on_call(frame, event, arg):
        if Path(frame.f_code.co_filename).parent == SRC:
            reached.add(name_of(frame.f_code))

    configs = {
        "admm": CONFIG,
        "pdhgm": {**CONFIG, "solver": {**CONFIG["solver"],
                                       "algorithm": "pdhgm"},
                  "weights": {"lam": [0.05, 0.07], "alpha0": 0.062,
                              "alpha": [0.9, 0.95]}},
    }
    # a function an earlier test left cached would not be entered again
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"padmm.{path.stem}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for name, cfg in configs.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump({**cfg,
                                            "output": str(tmp_path / name)}))
            for command in COMMANDS:
                assert main(command + ["--config", str(path)]) == EXIT_OK
    finally:
        sys.settrace(previous)
    return reached


def test_every_function_is_reached_or_listed(tmp_path, capsys):
    defined = defined_functions()
    unreached = defined - reached_by_cli(tmp_path)
    capsys.readouterr()
    assert set(UNREACHED) <= defined, "listed functions that do not exist"
    assert sorted(unreached - set(UNREACHED)) == [], "reached only by tests"
    assert sorted(set(UNREACHED) - unreached) == [], "listed but reached"
    assert all(UNREACHED.values())
