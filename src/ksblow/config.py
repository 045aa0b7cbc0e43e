"""Run configuration: a single strict JSON document with nested sections.

Each section is a frozen dataclass, and the dataclass is the whole schema of
that section: every field is a key, a field without a default is a required
key, and the default is the value of an omitted or ``null`` key (and of an
empty list, for a list whose default is ``null``).  The annotation picks the
reader -- ``float`` a finite number, ``int`` an integer, ``tuple`` a list of
finite numbers, ``bool``, ``str``, or a nested section -- unless the field
names its own reader in its metadata.

Unknown keys anywhere are errors (reproducibility beats leniency).  A section
is checked for unknown keys, then for missing keys, then value by value in
field order, so a document with several faults always reports the same one.
Floats round-trip exactly (shortest-repr serialization), and
``config_to_dict`` inverts ``parse_config``.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache, partial
from typing import get_args, get_type_hints

from .errors import ConfigError
from .params import SystemParams


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


def _integer(value, name):
    number = _finite(value, name)
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer (got {number!r})")
    return int(number)


def _number_list(value, name):
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers")
    return tuple(_finite(v, f"{name}[{i}]") for i, v in enumerate(value))


def _boolean(value, name):
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean")
    return value


def _string(value, name):
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string")
    return value


def _names(value, name):
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name} must be a list of names")
    return tuple(value)


def _seed(value, name):
    seed = _integer(value, name)
    if seed < 0:
        raise ConfigError(f"{name} must be >= 0 (got {seed})")
    return seed


def _lemma_tuples(value, name):
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list")
    return tuple(_section(LemmaTuple, item, f"{name}[{k}]") for k, item in enumerate(value))


_READERS = {float: _finite, int: _integer, tuple: _number_list, bool: _boolean, str: _string}


@cache
def _schema(cls):
    """(key, reader, required, unset values, is a section) for each field of
    the dataclass ``cls``, in field order."""
    hints = get_type_hints(cls)
    schema = []
    for f in fields(cls):
        kind = next((t for t in get_args(hints[f.name]) if t is not type(None)),
                    hints[f.name])
        read = f.metadata.get("read") or _READERS.get(kind) or partial(_section, kind)
        required = f.default is MISSING and f.default_factory is MISSING
        # an empty list leaves a list that defaults to null unset
        unset = (None, []) if kind is tuple and f.default is None else (None,)
        schema.append((f.name, read, required, unset, is_dataclass(kind)))
    return tuple(schema)


def _section(cls, raw, path):
    """Read the object ``raw`` found at ``path`` into the dataclass ``cls``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"section {path!r} must be an object")
    schema = _schema(cls)
    known = {key for key, *_ in schema}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key {path}.{key}")
    for key, _, required, _, _ in schema:
        if required and key not in raw:
            raise ConfigError(f"missing key {path}.{key}")
    values = {}
    for key, read, required, unset, is_section in schema:
        # sections are named by their own key, not as config.<key>
        name = key if cls is RunConfig else f"{path}.{key}"
        value = raw.get(key)
        if value in unset:
            if not required:
                continue  # the dataclass default
            if not is_section:  # a null section is "not an object" instead
                raise ConfigError(f"missing key {name}")
        values[key] = read(value, name)
    return cls(**values)


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
class OutputSection:
    directory: str | None = None


@dataclass(frozen=True)
class BlowupSection:
    eta: float
    t0: float = 0.0
    betas: tuple = (1.0,)
    c_sub_override: float | None = None


@dataclass(frozen=True)
class LemmaTuple:
    """One configured (system, test function) tuple of the lemma checks."""

    n: int
    alpha: float
    f0: float
    R: float
    rho: float
    xi: float
    delta: float
    gamma: float


@dataclass(frozen=True)
class LemmaSweepSection:
    count: int = 100
    seed: int = field(default=20240808, metadata={"read": _seed})
    tuples: tuple = field(default=(), metadata={"read": _lemma_tuples})


@dataclass(frozen=True)
class WeakResidualSection:
    fields: tuple = field(default=("interior", "initial", "origin_window", "constant_state"),
                          metadata={"read": _names})
    refine: bool = True


@dataclass(frozen=True)
class RunConfig:
    """The sections of a document, in the order they are checked."""

    system: SystemParams
    test_function: TestFnSection | None = None
    solver: SolverSection | None = None
    output: OutputSection | None = None
    blowup: BlowupSection | None = None
    lemma_sweep: LemmaSweepSection | None = None
    weak_residual: WeakResidualSection = field(default_factory=WeakResidualSection)


def parse_config(doc: dict) -> RunConfig:
    cfg = _section(RunConfig, doc, "config")
    # an output section without a directory configures nothing
    return replace(cfg, output=None) if cfg.output == OutputSection() else cfg


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


def _plain(value):
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_to_dict(cfg: RunConfig) -> dict:
    """Every section that is set, with every key, as a JSON-ready document."""
    return {key: _plain(section) for key, section in asdict(cfg).items()
            if section is not None}
