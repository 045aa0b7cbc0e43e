"""Run configuration: a single strict JSON document with nested sections.

Unknown keys anywhere are errors (reproducibility beats leniency), floats
round-trip exactly (shortest-repr serialization), and a parsed configuration
re-serializes to an equivalent document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .params import SystemParams

_SYSTEM_KEYS = {"n": True, "alpha": True, "f0": True, "R": True, "rho": True, "c0": True}
_TESTFN_KEYS = {"xi": False, "delta": False}
_SOLVER_KEYS = {
    "epsilon": False, "eps_list": False, "s_max": True, "N": True, "ratio": False,
    "t_end": True, "output_times": True, "cfl_safety": False, "max_dt": False,
}
_OUTPUT_KEYS = {"directory": False}
_BLOWUP_KEYS = {"t0": False, "eta": True, "betas": False, "c_sub_override": False}
_LEMMA_KEYS = {"count": False, "seed": False, "tuples": False}
_RESIDUAL_KEYS = {"fields": False, "refine": False, "constant_window": False}
_TOP_KEYS = {"system": True, "test_function": False, "solver": False, "output": False,
             "blowup": False, "lemma_sweep": False, "weak_residual": False}


def _check_keys(section: dict, allowed: dict, path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"section {path!r} must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")
    for key, required in allowed.items():
        if required and key not in section:
            raise ConfigError(f"missing key {path}.{key}")


def _finite(value, name):
    """``value`` as a finite float; JSON admits NaN, +-Infinity and integers
    beyond the double range, none of which is a usable setting."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number (got {value!r})")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite (got {value!r})")
    return number


def _number(section, key, path, required=True, default=None):
    if key not in section or section[key] is None:
        if required:
            raise ConfigError(f"missing key {path}.{key}")
        return default
    return _finite(section[key], f"{path}.{key}")


def _integer(section, key, path, required=True, default=None):
    value = _number(section, key, path, required, default)
    if value is not None and not float(value).is_integer():
        raise ConfigError(f"{path}.{key} must be an integer (got {value!r})")
    return None if value is None else int(value)


def _number_list(section, key, path, required=True, default=None):
    if key not in section or section[key] is None:
        if required:
            raise ConfigError(f"missing key {path}.{key}")
        return default
    value = section[key]
    if not isinstance(value, list):
        raise ConfigError(f"{path}.{key} must be a list of numbers")
    return tuple(_finite(v, f"{path}.{key}[{i}]") for i, v in enumerate(value))


@dataclass(frozen=True)
class TestFnSection:
    """Raw test-function parameters; delta resolves to its default later and
    gamma is chosen by the blow-up parameter selection."""

    __test__ = False  # not a pytest class despite the name

    xi: float = 4.0
    delta: float | None = None


@dataclass(frozen=True)
class SolverSection:
    s_max: float
    N: int
    t_end: float
    output_times: tuple
    epsilon: float | None = None
    eps_list: tuple | None = None
    ratio: float | None = None
    cfl_safety: float = 0.4
    max_dt: float | None = None


@dataclass(frozen=True)
class BlowupSection:
    eta: float
    t0: float = 0.0
    betas: tuple = (1.0,)
    c_sub_override: float | None = None


@dataclass(frozen=True)
class LemmaSweepSection:
    count: int = 100
    seed: int = 20240808
    tuples: tuple = ()


@dataclass(frozen=True)
class WeakResidualSection:
    fields: tuple = ("interior", "initial", "origin_window", "constant_state")
    refine: bool = True
    constant_window: float = 5e-4


@dataclass(frozen=True)
class RunConfig:
    system: SystemParams
    solver: SolverSection | None = None
    test_function: TestFnSection | None = None
    output_directory: str | None = None
    blowup: BlowupSection | None = None
    lemma_sweep: LemmaSweepSection | None = None
    weak_residual: WeakResidualSection = field(default_factory=WeakResidualSection)


def parse_config(doc: dict) -> RunConfig:
    _check_keys(doc, _TOP_KEYS, "config")

    sys_sec = doc["system"]
    _check_keys(sys_sec, _SYSTEM_KEYS, "system")
    system = SystemParams(
        n=_integer(sys_sec, "n", "system"), alpha=_number(sys_sec, "alpha", "system"),
        f0=_number(sys_sec, "f0", "system"), R=_number(sys_sec, "R", "system"),
        rho=_number(sys_sec, "rho", "system"), c0=_number(sys_sec, "c0", "system"))

    test_function = None
    if "test_function" in doc and doc["test_function"] is not None:
        sec = doc["test_function"]
        _check_keys(sec, _TESTFN_KEYS, "test_function")
        test_function = TestFnSection(
            xi=_number(sec, "xi", "test_function", required=False, default=4.0),
            delta=_number(sec, "delta", "test_function", required=False))

    solver = None
    if "solver" in doc and doc["solver"] is not None:
        sec = doc["solver"]
        _check_keys(sec, _SOLVER_KEYS, "solver")
        solver = SolverSection(
            s_max=_number(sec, "s_max", "solver"),
            N=_integer(sec, "N", "solver"),
            t_end=_number(sec, "t_end", "solver"),
            output_times=_number_list(sec, "output_times", "solver"),
            epsilon=_number(sec, "epsilon", "solver", required=False),
            eps_list=_number_list(sec, "eps_list", "solver", required=False),
            ratio=_number(sec, "ratio", "solver", required=False),
            cfl_safety=_number(sec, "cfl_safety", "solver", required=False, default=0.4),
            max_dt=_number(sec, "max_dt", "solver", required=False))

    output_directory = None
    if "output" in doc and doc["output"] is not None:
        sec = doc["output"]
        _check_keys(sec, _OUTPUT_KEYS, "output")
        directory = sec.get("directory")
        if directory is not None and not isinstance(directory, str):
            raise ConfigError("output.directory must be a string")
        output_directory = directory

    blowup = None
    if "blowup" in doc and doc["blowup"] is not None:
        sec = doc["blowup"]
        _check_keys(sec, _BLOWUP_KEYS, "blowup")
        blowup = BlowupSection(
            eta=_number(sec, "eta", "blowup"),
            t0=_number(sec, "t0", "blowup", required=False, default=0.0),
            betas=_number_list(sec, "betas", "blowup", required=False, default=(1.0,)),
            c_sub_override=_number(sec, "c_sub_override", "blowup", required=False))

    lemma_sweep = None
    if "lemma_sweep" in doc and doc["lemma_sweep"] is not None:
        sec = doc["lemma_sweep"]
        _check_keys(sec, _LEMMA_KEYS, "lemma_sweep")
        count = _integer(sec, "count", "lemma_sweep", required=False, default=100)
        seed = _integer(sec, "seed", "lemma_sweep", required=False, default=20240808)
        if seed < 0:
            raise ConfigError(f"lemma_sweep.seed must be >= 0 (got {seed})")
        tuples_raw = sec.get("tuples", [])
        if tuples_raw is None:
            tuples_raw = []
        if not isinstance(tuples_raw, list):
            raise ConfigError("lemma_sweep.tuples must be a list")
        tuples = []
        keys = {"n": True, "alpha": True, "f0": True, "R": True, "rho": True,
                "xi": True, "delta": True, "gamma": True}
        for k, item in enumerate(tuples_raw):
            path = f"lemma_sweep.tuples[{k}]"
            _check_keys(item, keys, path)
            tuples.append({key: _integer(item, key, path) if key == "n"
                           else _number(item, key, path) for key in keys})
        lemma_sweep = LemmaSweepSection(count=count, seed=seed, tuples=tuple(tuples))

    weak_residual = WeakResidualSection()
    if "weak_residual" in doc and doc["weak_residual"] is not None:
        sec = doc["weak_residual"]
        _check_keys(sec, _RESIDUAL_KEYS, "weak_residual")
        fields = sec.get("fields", list(WeakResidualSection().fields))
        if not isinstance(fields, list) or not all(isinstance(f, str) for f in fields):
            raise ConfigError("weak_residual.fields must be a list of names")
        refine = sec.get("refine", True)
        if not isinstance(refine, bool):
            raise ConfigError("weak_residual.refine must be a boolean")
        weak_residual = WeakResidualSection(
            fields=tuple(fields), refine=refine,
            constant_window=_number(sec, "constant_window", "weak_residual",
                                    required=False, default=5e-4))

    return RunConfig(system=system, solver=solver, test_function=test_function,
                     output_directory=output_directory, blowup=blowup,
                     lemma_sweep=lemma_sweep, weak_residual=weak_residual)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return parse_config(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    doc: dict = {"system": {
        "n": cfg.system.n, "alpha": cfg.system.alpha, "f0": cfg.system.f0,
        "R": cfg.system.R, "rho": cfg.system.rho, "c0": cfg.system.c0}}
    if cfg.test_function is not None:
        tf = cfg.test_function
        doc["test_function"] = {"xi": tf.xi, "delta": tf.delta}
    if cfg.solver is not None:
        s = cfg.solver
        doc["solver"] = {
            "epsilon": s.epsilon, "eps_list": list(s.eps_list) if s.eps_list else None,
            "s_max": s.s_max, "N": s.N, "ratio": s.ratio, "t_end": s.t_end,
            "output_times": list(s.output_times), "cfl_safety": s.cfl_safety,
            "max_dt": s.max_dt}
    if cfg.output_directory is not None:
        doc["output"] = {"directory": cfg.output_directory}
    if cfg.blowup is not None:
        b = cfg.blowup
        doc["blowup"] = {"t0": b.t0, "eta": b.eta, "betas": list(b.betas),
                         "c_sub_override": b.c_sub_override}
    if cfg.lemma_sweep is not None:
        ls = cfg.lemma_sweep
        doc["lemma_sweep"] = {"count": ls.count, "seed": ls.seed,
                              "tuples": [dict(t) for t in ls.tuples]}
    doc["weak_residual"] = {"fields": list(cfg.weak_residual.fields),
                            "refine": cfg.weak_residual.refine,
                            "constant_window": cfg.weak_residual.constant_window}
    return doc
