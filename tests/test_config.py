"""The config reader: every default lives on the dataclasses, once.

The README's table of config keys is the oracle here: each row names a
key, the ``ExperimentConfig`` field it sets and that field's default.
"""

import ast
import dataclasses
import functools
import re
from pathlib import Path

import pytest
import yaml

import padmm
from padmm.admm import SolverConfig
from padmm.phantom import PhantomSpec, SamplingSpec
from padmm.pipeline import ExperimentConfig, config_from_dict, load_config

README = (Path(__file__).parents[1] / "README.md").read_text()


def _key_table():
    """``(key, field, default)`` rows of the README's config key table."""
    section = README.split("### Config keys", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `([\w.]+)` \| `([\w.]+)` \| `([^`]*)` \|",
                      section, re.M)


ROWS = _key_table()


def _nested(key, value):
    """The config data that sets one dotted ``key``."""
    *section, name = key.split(".")
    return {section[0]: {name: value}} if section else {name: value}


def _fields(cfg):
    """Every leaf setting of a config, by dotted field path."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out.update({f"{f.name}.{k}": v for k, v in _fields(value).items()})
        else:
            out[f.name] = value
    return out


def _load(tmp_path, raw):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return load_config(path)


def _other(value):
    """A valid setting different from ``value``."""
    if isinstance(value, str):
        return "pdhgm" if value == "admm" else value + "2"
    return value + 1 if isinstance(value, int) else value / 2


def test_empty_data_gives_the_dataclass_defaults():
    assert config_from_dict({}) == ExperimentConfig()
    assert ExperimentConfig().solver == SolverConfig()
    assert dataclasses.replace(ExperimentConfig()) == ExperimentConfig()


def test_an_empty_file_gives_the_dataclass_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(path) == ExperimentConfig()


def test_the_table_lists_every_key_of_the_walkthrough():
    block = README.split("```yaml\n", 1)[1].split("```", 1)[0]
    keys = []
    for section, values in yaml.safe_load(block).items():
        if isinstance(values, dict):
            keys += [f"{section}.{key}" for key in values]
        else:
            keys.append(section)
    assert sorted(key for key, _, _ in ROWS) == sorted(keys)


def test_the_table_covers_every_setting():
    settable = {field for _, field, _ in ROWS}
    # the solver field no config key sets
    library_only = {"solver.tau2_override"}
    assert settable | library_only == set(_fields(ExperimentConfig()))


@pytest.mark.parametrize("key, field, default", ROWS,
                         ids=[key for key, _, _ in ROWS])
class TestEachKey:
    def test_table_default_is_the_dataclass_default(self, key, field, default):
        value = functools.reduce(getattr, field.split("."), ExperimentConfig())
        assert value == yaml.safe_load(default)
        assert type(value) is type(yaml.safe_load(default))

    def test_setting_the_default_equals_the_empty_file(self, tmp_path, key,
                                                       field, default):
        cfg = _load(tmp_path, _nested(key, yaml.safe_load(default)))
        assert cfg == ExperimentConfig()

    def test_the_key_sets_its_field_alone(self, tmp_path, key, field,
                                          default):
        value = _other(yaml.safe_load(default))
        changed = _fields(_load(tmp_path, _nested(key, value)))
        defaults = _fields(ExperimentConfig())
        assert changed[field] == value
        assert {k for k in defaults if changed[k] != defaults[k]} == {field}


SETTINGS = (PhantomSpec, SamplingSpec, SolverConfig, ExperimentConfig)


class TestValidByConstruction:
    """Each settings class checks its own fields when it is built, so a
    value out of range cannot reach a run, whoever builds the settings."""

    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda c: dataclasses.replace(c, algorithm="ADMM"),
                     "algorithm", id="algorithm"),
        pytest.param(lambda c: dataclasses.replace(c, coils=0), "coil",
                     id="coils"),
        pytest.param(lambda c: dataclasses.replace(c.solver, delta=-1.0),
                     "delta", id="solver-delta"),
        pytest.param(lambda c: dataclasses.replace(c.phantom, size=0),
                     "size", id="phantom-size"),
        pytest.param(lambda c: dataclasses.replace(c.sampling, noise_seed=-1),
                     "seed", id="noise-seed"),
        pytest.param(lambda c: dataclasses.replace(c, coils=2,
                                                   lam=[0.1] * 3),
                     "weights.lam", id="lam-per-coil"),
        pytest.param(lambda c: dataclasses.replace(c, coils=2, alpha=[]),
                     "weights.alpha", id="alpha-per-coil"),
        pytest.param(lambda c: dataclasses.replace(c, lam=float("nan")),
                     "weights.lam must be finite", id="lam-nan"),
        pytest.param(lambda c: dataclasses.replace(c, alpha=-1.0),
                     "weights.alpha must be finite", id="alpha-negative"),
        pytest.param(lambda c: dataclasses.replace(c, alpha0=float("inf")),
                     "weights.alpha0 must be finite", id="alpha0-inf"),
        pytest.param(lambda c: dataclasses.replace(c, coils=2,
                                                   lam=[0.1, -0.1]),
                     "weights.lam must be finite", id="lam-per-coil-negative"),
    ])
    def test_an_out_of_range_value_raises_when_built(self, build, match):
        with pytest.raises(ValueError, match=match):
            build(ExperimentConfig())

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: SolverConfig(max_iterations=2.5),
                     id="max-iterations-float"),
        pytest.param(lambda: SolverConfig(max_iterations=float("nan")),
                     id="max-iterations-nan"),
        pytest.param(lambda: SolverConfig(power_iter_max=2.5),
                     id="power-iter-max"),
        pytest.param(lambda: SolverConfig(seed=1.5), id="solver-seed"),
        pytest.param(lambda: PhantomSpec(size=2.5), id="phantom-size"),
        pytest.param(lambda: SamplingSpec(noise_seed=1.5), id="noise-seed"),
        pytest.param(lambda: ExperimentConfig(coils=2.5), id="coils"),
        pytest.param(lambda: ExperimentConfig(coil_seed=1.5), id="coil-seed"),
    ])
    def test_a_count_that_is_no_integer_raises_when_built(self, build):
        # a float count would otherwise fail mid-run, in range() or in a
        # numpy broadcast
        with pytest.raises(TypeError, match="integer"):
            build()

    def test_per_coil_weights_of_the_coil_count_are_kept(self):
        cfg = ExperimentConfig(coils=2, lam=[0.1, 0.2], alpha=[0.9, 0.8])
        assert (cfg.lam, cfg.alpha) == ([0.1, 0.2], [0.9, 0.8])

    @pytest.mark.parametrize("cfg", [SolverConfig(), ExperimentConfig()],
                             ids=["SolverConfig", "ExperimentConfig"])
    def test_fields_cannot_be_assigned(self, cfg):
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))


def test_no_settings_check_a_caller_can_skip():
    # checks run in ``__post_init__`` of frozen classes, so no
    # ``validate`` method exists to be forgotten, and none is called
    for path in sorted(Path(padmm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, k, None) for k in ("name", "attr", "id")}
            assert "validate" not in names, f"{path.name}:{node.lineno}"
    for cls in SETTINGS:
        assert cls.__dataclass_params__.frozen, cls.__name__
        assert "__post_init__" in vars(cls), cls.__name__


def test_only_the_settings_checks_read_tau2_override():
    # tau2 comes from the step rule, so no step reads the field: it only
    # asserts the separable step's 1/delta, and deleting it touches the
    # two checks alone
    readers = set()
    for path in sorted(Path(padmm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {node: f"{cls.name}.{fn.name}"
                 for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn)}
        readers |= {scope.get(node, f"{path.name}:{node.lineno}")
                    for node in ast.walk(tree)
                    if getattr(node, "attr", None) == "tau2_override"
                    or getattr(node, "value", None) == "tau2_override"}
    assert readers == {"SolverConfig.__post_init__", "AdmmSolver.__init__"}
