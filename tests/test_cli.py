import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksblow.config as config_mod
from ksblow.cli import _default_lemma_grid, main
from ksblow.config import ConfigError, config_to_dict, load_config, parse_config
from ksblow.params import SystemParams, f0_threshold
from ksblow.transform import write_rows

README = Path(__file__).resolve().parents[1] / "README.md"

SCENARIO_SYSTEM = {"n": 3, "alpha": 2.5, "f0": 2.0, "R": 0.5, "rho": 0.1, "c0": 1.0}


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _base_doc(**extra):
    doc = {"system": dict(SCENARIO_SYSTEM)}
    doc.update(extra)
    return doc


def test_validate_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, _base_doc())
    assert main(["validate", "--config", ok]) == 0
    out = capsys.readouterr().out
    assert "feasible      = True" in out

    low = _base_doc()
    low["system"]["f0"] = 1.0
    low_path = _write(tmp_path, low, "low.json")
    assert main(["validate", "--config", low_path]) == 2
    out = capsys.readouterr().out
    assert "1.2" in out  # the threshold is printed

    bad = _base_doc()
    del bad["system"]["alpha"]
    bad_path = _write(tmp_path, bad, "bad.json")
    assert main(["validate", "--config", bad_path]) == 1


def test_validate_malformed_params(tmp_path, capsys):
    doc = _base_doc()
    doc["system"]["rho"] = 0.25  # rho = R/2 exactly
    assert main(["validate", "--config", _write(tmp_path, doc)]) == 1
    # JSON admits Infinity and NaN; neither is a parameter
    for key, value in (("c0", math.inf), ("alpha", math.nan)):
        doc = _base_doc()
        doc["system"][key] = value
        assert main(["validate", "--config", _write(tmp_path, doc, f"{key}.json")]) == 1
        assert f"system.{key} must be finite" in capsys.readouterr().err


def test_validate_zero_forcing_is_infeasible_not_malformed(tmp_path):
    doc = _base_doc()
    doc["system"]["f0"] = 0.0
    assert main(["validate", "--config", _write(tmp_path, doc)]) == 2


def test_validate_rejects_an_n_whose_delta_bound_overflows(tmp_path, capsys):
    # 1e200 is an integer >= 3, but the delta bound's discriminant, of order
    # n^4, overflows a double
    doc = _base_doc()
    doc["system"]["n"] = 1e200
    assert main(["validate", "--config", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: n must be small enough that n^4 is a finite double (got ")


def test_unknown_key_rejected(tmp_path, capsys):
    doc = _base_doc()
    doc["system"]["extra"] = 1.0
    with pytest.raises(ConfigError, match="unknown key system.extra"):
        load_config(_write(tmp_path, doc))
    doc2 = _base_doc()
    doc2["typo_section"] = {}
    with pytest.raises(ConfigError, match="unknown key config.typo_section"):
        load_config(_write(tmp_path, doc2, "c2.json"))
    # a removed key is unknown too, and the command exits with the config code
    doc3 = _simulate_doc(tmp_path / "lim")
    doc3["solver"]["limiter"] = None
    assert main(["simulate", "--config", _write(tmp_path, doc3, "c3.json")]) == 1
    # gamma is selected by blowup, never configured
    doc4 = _base_doc(test_function={"xi": 4.0, "gamma": 20.0})
    assert main(["validate", "--config", _write(tmp_path, doc4, "c4.json")]) == 1
    # the constant_state field's window is a constant of the field library
    doc5 = _simulate_doc(tmp_path / "cw")
    doc5["weak_residual"] = {"refine": False, "constant_window": 1e-3}
    assert main(["weak-residual", "--config", _write(tmp_path, doc5, "c5.json")]) == 1
    assert "unknown key weak_residual.constant_window" in capsys.readouterr().err
    assert not (tmp_path / "cw").exists()


def _readme_schema() -> str:
    return re.search(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"),
                     re.DOTALL).group(1)


def _field_kinds(cls):
    """(field, annotated type without ``| None``) for each field of ``cls``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        yield f, next((t for t in typing.get_args(hints[f.name]) if t is not type(None)),
                      hints[f.name])


def test_readme_schema_matches_config_keys():
    # every documented key parses, every accepted key is documented, and the
    # README shows every default that is not null
    block = _readme_schema()
    doc = json.loads(re.sub(r"//.*", "", block))
    parse_config(doc)
    sections = {f.name: kind for f, kind in _field_kinds(config_mod.RunConfig)}
    assert list(sections) == ["system", "test_function", "solver", "output", "blowup",
                              "lemma_sweep", "weak_residual"]
    documented = set(re.findall(r'"(\w+)"\s*:', block))
    accepted = set(sections).union(*({f.name for f in dataclasses.fields(cls)}
                                     for cls in sections.values()))
    assert documented <= accepted, documented - accepted
    assert accepted <= documented, accepted - documented
    tuple_keys = re.search(r"each tuple is\s*//\s*\{(.*?)\}", block).group(1).split(", ")
    assert tuple_keys == [f.name for f in dataclasses.fields(config_mod.LemmaTuple)]
    for key, cls in sections.items():
        for f in dataclasses.fields(cls):
            if f.default is not None and f.default is not dataclasses.MISSING:
                shown = doc[key][f.name]
                assert shown == (list(f.default) if isinstance(f.default, tuple)
                                 else f.default), f"{key}.{f.name}"


def test_usage_errors_exit1(tmp_path, capsys):
    # argparse's own status 2 would read as "infeasible"
    assert main(["simulate"]) == 1
    assert "required: --config" in capsys.readouterr().err
    cfg = _write(tmp_path, _simulate_doc(tmp_path / "u"))
    assert main(["simulate", "--config", cfg, "--threads", "2"]) == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--bogus", "1"]) == 1
    assert main(["--help"]) == 0


def test_config_round_trip(tmp_path):
    doc = _base_doc(
        test_function={"xi": 4.0, "delta": 0.8},
        solver={"epsilon": 0.01, "s_max": 4.0, "N": 128, "t_end": 0.02,
                "output_times": [0.0, 0.01, 0.02]},
        blowup={"t0": 0.0, "eta": 0.1, "betas": [1.0]},
        output={"directory": "somewhere"})
    cfg = load_config(_write(tmp_path, doc))
    doc2 = config_to_dict(cfg)
    cfg2 = parse_config(doc2)
    assert cfg == cfg2

    # every key of every section set: the manifest's config echo, pinned
    # (integers where floats belong, and the reverse, are echoed converted)
    tup = {"n": 3.0, "alpha": 2.5, "f0": 2, "R": 0.5, "rho": 0.1,
           "xi": 4, "delta": 0.8, "gamma": 20.0}
    full = _base_doc(
        test_function={"xi": 3.5, "delta": 0.8},
        solver={"epsilon": 0.01, "eps_list": [0.02, 0.01], "s_max": 4, "N": 128.0,
                "ratio": 1.1, "t_end": 0.02, "output_times": [0, 0.01, 0.02],
                "cfl_safety": 0.3, "max_dt": 1e-4},
        output={"directory": "somewhere"},
        blowup={"t0": 0.001, "eta": 0.02, "betas": [1, 2.5], "c_sub_override": 0.4},
        lemma_sweep={"count": 7, "seed": 3, "tuples": [tup]},
        weak_residual={"fields": ["interior", "initial"], "refine": False})
    expected = {
        "system": {"n": 3, "alpha": 2.5, "f0": 2.0, "R": 0.5, "rho": 0.1, "c0": 1.0},
        "test_function": {"xi": 3.5, "delta": 0.8},
        "solver": {"epsilon": 0.01, "eps_list": [0.02, 0.01], "s_max": 4.0, "N": 128,
                   "ratio": 1.1, "t_end": 0.02, "output_times": [0.0, 0.01, 0.02],
                   "cfl_safety": 0.3, "max_dt": 1e-4},
        "output": {"directory": "somewhere"},
        "blowup": {"t0": 0.001, "eta": 0.02, "betas": [1.0, 2.5], "c_sub_override": 0.4},
        "lemma_sweep": {"count": 7, "seed": 3, "tuples": [
            {"n": 3, "alpha": 2.5, "f0": 2.0, "R": 0.5, "rho": 0.1,
             "xi": 4.0, "delta": 0.8, "gamma": 20.0}]},
        "weak_residual": {"fields": ["interior", "initial"], "refine": False},
    }
    echo = config_to_dict(load_config(_write(tmp_path, full, "full.json")))
    assert echo == expected
    # json text tells 3 from 3.0, which == does not
    assert json.dumps(echo, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert parse_config(echo) == parse_config(full)


def test_config_null_means_unset(tmp_path, capsys):
    cfg = parse_config(_base_doc(
        solver={"s_max": 4.0, "N": 96, "t_end": 0.01, "output_times": [0.0],
                "epsilon": None, "eps_list": [], "cfl_safety": None},
        output={"directory": None},
        weak_residual={"fields": None, "refine": None}))
    assert cfg.solver.epsilon is None and cfg.solver.eps_list is None
    assert cfg.solver.cfl_safety == 0.4
    assert cfg.output is None
    assert cfg.weak_residual == config_mod.WeakResidualSection()
    assert "output" not in config_to_dict(cfg)
    assert config_to_dict(cfg)["solver"]["eps_list"] is None
    # a null required key is missing; a null required section is not an object
    doc = _base_doc()
    doc["system"]["alpha"] = None
    with pytest.raises(ConfigError, match=r"^missing key system\.alpha$"):
        parse_config(doc)
    assert main(["validate", "--config", _write(tmp_path, {"system": None})]) == 1
    assert "config error: section 'system' must be an object" in capsys.readouterr().err


_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10**6, 10**6))
_VALID = {float: _NUMBER, int: st.one_of(st.integers(-10**20, 10**20),
                                          st.integers(-1000, 1000).map(float)),
          tuple: st.lists(_NUMBER, max_size=3), bool: st.booleans(),
          str: st.text("ab", max_size=3)}
_WRONG = st.one_of(
    st.none(), st.booleans(), st.text("ab", max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5]),
    st.integers(10**308, 10**400), st.integers(-10**400, -10**308),
    st.lists(st.one_of(st.none(), st.text("ab", max_size=1), _NUMBER), max_size=2),
    st.dictionaries(st.text("ab", max_size=2), st.integers(), max_size=1))


def _valid_docs(cls):
    """Documents of the declared schema of ``cls``, optional keys sometimes
    absent."""
    required, optional = {}, {}
    for f, kind in _field_kinds(cls):
        if f.name == "fields":
            value = st.lists(st.sampled_from(["interior", "initial", "x"]), max_size=3)
        elif f.name == "tuples":
            value = st.lists(_valid_docs(config_mod.LemmaTuple), max_size=2)
        else:
            value = _valid_docs(kind) if dataclasses.is_dataclass(kind) else _VALID[kind]
        has_default = f.default is not dataclasses.MISSING or \
            f.default_factory is not dataclasses.MISSING
        (optional if has_default else required)[f.name] = value
    return st.fixed_dictionaries(required, optional=optional)


def _objects(node):
    """Every object nested in ``node``, ``node`` included."""
    if isinstance(node, dict):
        yield node
    for child in (node.values() if isinstance(node, dict) else
                  node if isinstance(node, list) else ()):
        yield from _objects(child)


_VALID_DOC = _valid_docs(config_mod.RunConfig)


@st.composite
def _config_doc(draw):
    """A valid document with up to two faults: a key dropped, a key given a
    wrong value, or an unknown key added."""
    doc = draw(_VALID_DOC)
    for _ in range(draw(st.integers(0, 2))):
        obj = draw(st.sampled_from(list(_objects(doc))))
        fault = draw(st.sampled_from(["wrong", "drop", "unknown"]))
        if fault == "unknown" or not obj:
            obj["unknown"] = 1
            continue
        key = draw(st.sampled_from(sorted(obj)))
        if fault == "drop":
            del obj[key]
        else:
            obj[key] = draw(_WRONG)
    return doc


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_config_doc())
def test_parse_config_accepts_or_raises_config_error(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    text = json.dumps(config_to_dict(cfg), allow_nan=False)  # strict JSON
    assert parse_config(json.loads(text)) == cfg


def _simulate_doc(out_dir, eps_list=None, n_cells=96, t_end=0.01):
    solver = {"epsilon": 0.01, "s_max": 4.0, "N": n_cells, "t_end": t_end,
              "output_times": [0.0, t_end / 2, t_end]}
    if eps_list:
        solver["eps_list"] = eps_list
        solver.pop("epsilon")
    return _base_doc(solver=solver, output={"directory": str(out_dir)})


def test_simulate_naming_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    cfg = _write(tmp_path, _simulate_doc(out1))
    assert main(["simulate", "--config", cfg]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["indicator_beta1.csv", "manifest.json", "snapshot_t0.005.csv",
                     "snapshot_t0.01.csv", "snapshot_t0.csv"]

    out2 = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    for name in names:
        if name == "manifest.json":
            continue  # carries wall time
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_manifest_hashes(tmp_path):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _simulate_doc(out))
    assert main(["simulate", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"]
    for rel, digest in manifest["files"].items():
        actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
        assert actual == digest, rel


def test_simulate_sweep_directories(tmp_path):
    out = tmp_path / "sweep"
    cfg = _write(tmp_path, _simulate_doc(out, eps_list=[0.04, 0.02, 0.01]))
    assert main(["simulate", "--config", cfg]) == 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == ["eps_0.01", "eps_0.02", "eps_0.04"]
    report = json.loads((out / "sweep_report.json").read_text())
    assert report["eps_list"] == [0.04, 0.02, 0.01]
    assert len(report["pair_violations"]) == 2
    assert report["max_violation"] <= 1e-9


@pytest.mark.parametrize("max_dt", [0.0, -1.0])
def test_max_dt_must_be_positive(tmp_path, capsys, max_dt):
    doc = _simulate_doc(tmp_path / "dt")
    doc["solver"]["max_dt"] = max_dt
    assert main(["simulate", "--config", _write(tmp_path, doc)]) == 1
    assert "max_dt must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("epsilon", 1.5, "solver.epsilon must be in (0, 1) (got 1.5)"),
    ("cfl_safety", 0.0, "solver.cfl_safety must be in (0, 1) (got 0.0)"),
    ("output_times", [0.0, 0.01, 0.005],
     "solver.output_times must be nonnegative and strictly increasing"),
    ("output_times", [0.0, 0.02], "solver.output_times must not exceed t_end"),
    ("max_dt", -1e-4, "solver.max_dt must be > 0 (got -0.0001)"),
    ("eps_list", [0.01, 0.02], "solver.eps_list must be strictly decreasing within (0, 1)"),
    ("eps_list", [0.5, 1.0], "solver.eps_list must be strictly decreasing within (0, 1)"),
], ids=["epsilon", "cfl_safety", "output_times-decreasing", "output_times-past-t_end",
        "max_dt", "eps_list-increasing", "eps_list-range"])
def test_solver_errors_name_their_key(tmp_path, capsys, key, value, message):
    doc = _simulate_doc(tmp_path / "x")
    doc["solver"][key] = value
    assert main(["simulate", "--config", _write(tmp_path, doc)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # checked before the output is created


@pytest.mark.parametrize("key, value, message", [
    ("t_end", math.nan, "solver.t_end must be finite"),
    ("output_times", [0.0, math.inf], "solver.output_times[1] must be finite"),
    ("eps_list", [0.01, -math.inf], "solver.eps_list[1] must be finite"),
    ("s_max", 1e308, "solver.s_max = 1e+308 is too large"),
    ("s_max", 3.9, "solver.s_max must be >= 4 (got 3.9)"),
], ids=["t_end-nan", "output_times-infinite", "eps_list-infinite", "s_max-overflow",
        "s_max-below-4"])
def test_solver_numbers_finite_and_mesh_representable(tmp_path, capsys, key, value, message):
    doc = _simulate_doc(tmp_path / "x")
    doc["solver"][key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would fail here
        assert main(["simulate", "--config", _write(tmp_path, doc)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # checked before the output is created


def test_simulate_requires_epsilon(tmp_path, capsys):
    doc = _simulate_doc(tmp_path / "x")
    del doc["solver"]["epsilon"]
    assert main(["simulate", "--config", _write(tmp_path, doc)]) == 1
    # N >= 64 admits an explicit ratio only; the solved grading needs N >= 67
    doc = _simulate_doc(tmp_path / "y", n_cells=66)
    assert doc["solver"].get("ratio") is None
    assert main(["simulate", "--config", _write(tmp_path, doc, "n66.json")]) == 1
    assert "use N >= 67" in capsys.readouterr().err


@pytest.mark.parametrize("faults, drop, message", [
    ({"s_max": 3.9, "epsilon": 1.5}, None, "solver.s_max must be >= 4 (got 3.9)"),
    ({"N": 66, "epsilon": 1.5}, None,
     "solver.N = 66 is too small for the grading: even ratio 1.2 leaves s_1 > 1e-6*s_max; "
     "use N >= 67"),
    ({"epsilon": 1.5, "cfl_safety": 0.0}, None, "solver.epsilon must be in (0, 1) (got 1.5)"),
    ({"cfl_safety": 0.0, "max_dt": -1.0}, None, "solver.cfl_safety must be in (0, 1) (got 0.0)"),
    ({"max_dt": -1.0}, "epsilon", "solver.max_dt must be > 0 (got -1.0)"),
    ({"eps_list": [0.01, 0.02], "cfl_safety": 0.0}, "epsilon",
     "solver.cfl_safety must be in (0, 1) (got 0.0)"),
    ({"epsilon": 5e-9, "max_dt": 1e-4}, None,
     "solver.epsilon: 5e-09 is not resolved by the mesh: a cutoff must be >= 2*s_1 = {two_s1}"),
], ids=["s_max-epsilon", "N-epsilon", "epsilon-cfl_safety", "cfl_safety-max_dt",
        "no-epsilon-max_dt", "eps_list-cfl_safety", "unresolved-epsilon"])
def test_solver_faults_are_reported_in_a_fixed_order(tmp_path, capsys, faults, drop, message):
    # a section with two faults reports the one checked first: s_max, the
    # mesh, epsilon, t_end, cfl_safety, output_times, max_dt, a missing
    # cutoff, then the cutoffs themselves
    from ksblow.solver import build_mesh

    doc = _simulate_doc(tmp_path / "x")
    doc["solver"].update(faults)
    doc["solver"].pop(drop, None)
    assert main(["simulate", "--config", _write(tmp_path, doc)]) == 1
    two_s1 = 2.0 * build_mesh(4.0, 96)[1]
    assert capsys.readouterr().err == f"config error: {message.format(two_s1=two_s1)}\n"
    assert not (tmp_path / "x").exists()


def test_verify_lemmas_default_grid(tmp_path):
    # no lemma_sweep section at all: the default 100-tuple grid around the
    # configured scenario runs and every tuple passes
    out = tmp_path / "lem"
    doc = _base_doc(output={"directory": str(out)})
    assert main(["verify-lemmas", "--config", _write(tmp_path, doc)]) == 0
    lines = (out / "lemma_checks.csv").read_text().splitlines()
    assert lines[0].startswith("n,alpha,f0,R,rho,xi,delta,gamma")
    assert len(lines) == 101
    scan = (out / "margin_scan.csv").read_text().splitlines()
    assert scan[0] == "s_lo,s_hi,margin_bound"
    cells = np.array([[float(x) for x in line.split(",")] for line in scan[1:]])
    np.testing.assert_array_equal(cells[1:, 0], cells[:-1, 1])
    assert np.min(cells[:, 2]) >= -1e-9


# the default lemma grid of the README system, count 5, seed 20240808
PINNED_LEMMA_DRAWS = [
    "LemmaTuple(n=3, alpha=2.604623563980445, f0=2.58209979386353, R=0.5719196151597309, "
    "rho=0.0872232664664148, xi=3.293164611007186, delta=0.8805218174226064, "
    "gamma=98.79510013252744)",
    "LemmaTuple(n=3, alpha=2.712727181803869, f0=2.0135925926726053, R=0.47376606763480633, "
    "rho=0.12445677551461892, xi=3.0010712816533642, delta=0.6218930098804416, "
    "gamma=123.51447200051466)",
    "LemmaTuple(n=3, alpha=2.6805084199416496, f0=1.9754437258673476, R=0.454706913358584, "
    "rho=0.12339365645983794, xi=3.261611120118144, delta=0.5420139459972277, "
    "gamma=60.51543569003923)",
    "LemmaTuple(n=3, alpha=2.705519552780625, f0=2.8913104107959016, R=0.5733283105090077, "
    "rho=0.1283765692792595, xi=3.878167825032489, delta=0.7631049699108572, "
    "gamma=61.28297015316466)",
    "LemmaTuple(n=3, alpha=2.77585490510771, f0=2.031473293863395, R=0.5897891523783919, "
    "rho=0.12505287166317994, xi=3.0438536854295726, delta=0.5087550441975331, "
    "gamma=26.710736567605718)",
]


def test_default_lemma_grid_draws_are_pinned():
    # the tuples verify-lemmas checks by default, exactly: a change to the
    # generator that moves any draw shows here
    grid = _default_lemma_grid(SystemParams(**SCENARIO_SYSTEM), 5, 20240808)
    assert [repr(t) for t in grid] == PINNED_LEMMA_DRAWS


def test_verify_lemmas_first_draw_at_seed_1_is_pinned(tmp_path):
    # the first tuple of the seeded default grid, as verify-lemmas writes it
    out = tmp_path / "lem"
    doc = _base_doc(output={"directory": str(out)}, lemma_sweep={"count": 1, "seed": 1})
    assert main(["verify-lemmas", "--config", _write(tmp_path, doc)]) == 0
    lines = (out / "lemma_checks.csv").read_text().splitlines()
    assert lines[0].startswith("n,alpha,f0,R,rho,xi,delta,gamma,")
    assert lines[1].split(",")[:8] == [
        "3.0", "2.507092974820154", "2.9281092259921415", "0.5900927392651871",
        "0.07864957676317803", "3.288769287066177", "0.7101022503773045", "82.38519824153887"]


def test_verify_lemmas_construction_failure(tmp_path, capsys):
    out = tmp_path / "lemfail"
    bad_tuple = {"n": 3, "alpha": 2.5, "f0": 2.0, "R": 0.5, "rho": 0.1,
                 "xi": 4.0, "delta": 0.6, "gamma": 20.0}  # delta below its bound
    good_tuple = {"n": 3, "alpha": 2.5, "f0": 2.0, "R": 0.5, "rho": 0.1,
                  "xi": 4.0, "delta": 0.8, "gamma": 20.0}
    doc = _base_doc(lemma_sweep={"tuples": [good_tuple, bad_tuple]},
                    output={"directory": str(out)})
    assert main(["verify-lemmas", "--config", _write(tmp_path, doc)]) == 4
    err = capsys.readouterr().err
    assert "FAIL" in err
    rows = (out / "lemma_checks.csv").read_text().splitlines()[1:]
    assert "False" in rows[1]  # the bad tuple is reported as not constructed


_GOOD_TUPLE = {"n": 3, "alpha": 2.5, "f0": 2.0, "R": 0.5, "rho": 0.1,
               "xi": 4.0, "delta": 0.8, "gamma": 20.0}


@pytest.mark.parametrize("sweep, message", [
    ({"tuples": [dict(_GOOD_TUPLE, n=3.5)]}, "tuples[0].n must be an integer"),
    ({"tuples": [dict(_GOOD_TUPLE, alpha="abc")]}, "tuples[0].alpha must be a number"),
    ({"tuples": [dict(_GOOD_TUPLE, alpha=[2.5])]}, "tuples[0].alpha must be a number"),
    ({"count": 2.5}, "lemma_sweep.count must be an integer"),
    ({"seed": 1.5}, "lemma_sweep.seed must be an integer"),
    ({"seed": -1}, "lemma_sweep.seed must be >= 0"),
    ({"tuples": [dict(_GOOD_TUPLE, alpha=math.nan)]}, "tuples[0].alpha must be finite"),
    ({"count": math.inf}, "lemma_sweep.count must be finite"),
], ids=["n-float", "alpha-string", "alpha-list", "count-float", "seed-float", "seed-negative",
        "alpha-nan", "count-infinite"])
def test_lemma_sweep_fields_validated(tmp_path, capsys, sweep, message):
    doc = _base_doc(lemma_sweep=sweep, output={"directory": str(tmp_path / "v")})
    assert main(["verify-lemmas", "--config", _write(tmp_path, doc)]) == 1
    assert message in capsys.readouterr().err


def test_verify_lemmas_empty_grid(tmp_path):
    doc = _base_doc(lemma_sweep={"count": 0},
                    output={"directory": str(tmp_path / "z")})
    assert main(["verify-lemmas", "--config", _write(tmp_path, doc)]) == 1


def test_blowup_infeasible_gate(tmp_path):
    doc = _base_doc(blowup={"eta": 0.1},
                    solver={"epsilon": 0.01, "s_max": 4.0, "N": 96, "t_end": 0.1,
                            "output_times": [0.0, 0.05, 0.1]},
                    output={"directory": str(tmp_path / "g")})
    doc["system"]["f0"] = 1.0
    assert main(["blowup", "--config", _write(tmp_path, doc)]) == 2


@pytest.mark.parametrize("n", [64, 200])
def test_blowup_sinh_condition_fails_cleanly_at_large_n(tmp_path, capsys, n):
    # the README system at large n: at n = 64 s^3 underflows against an
    # overflowed sinh, at n = 200 the cap on s0 is about 8e-256 and halving
    # reaches 0; both are a selection failure, with no warning on the way
    out = tmp_path / "b"
    doc = _base_doc(solver={"epsilon": 1e-3, "s_max": 4.0, "N": 128, "t_end": 0.002,
                            "output_times": [0.0, 0.001, 0.002]},
                    blowup={"eta": 0.002}, output={"directory": str(out)})
    doc["system"].update(n=n, f0=2.0 * f0_threshold(n, 2.5))
    assert main(["blowup", "--config", _write(tmp_path, doc)]) == 5
    assert capsys.readouterr().err == \
        "parameter selection failure: no s0 satisfies the cubic-sinh requirement\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"]["failing"] == "sinh_condition"


def test_blowup_requires_t1_snapshot(tmp_path):
    doc = _base_doc(blowup={"eta": 0.1},
                    solver={"epsilon": 0.01, "s_max": 4.0, "N": 96, "t_end": 0.1,
                            "output_times": [0.0, 0.1]},
                    output={"directory": str(tmp_path / "t1")})
    assert main(["blowup", "--config", _write(tmp_path, doc)]) == 1


@pytest.mark.parametrize("command", ["simulate", "blowup", "weak-residual"])
def test_simulate_solver_failure_exit3(tmp_path, monkeypatch, command):
    import ksblow.cli as cli_mod
    from ksblow.errors import SolverError

    def boom(*args, **kwargs):
        raise SolverError("synthetic breakdown", location=(0.1, 0.0))

    monkeypatch.setattr(cli_mod, "solve_regularized", boom)
    out = tmp_path / "fail"
    doc = _simulate_doc(out)
    doc["blowup"] = {"eta": 0.01}
    cfg = _write(tmp_path, doc)
    assert main([command, "--config", cfg]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"]["kind"] == "solver"
    assert "synthetic breakdown" in manifest["failure"]["detail"]


def test_nonfinite_w_exits3(tmp_path, monkeypatch):
    # a NaN from the tridiagonal solve is a located invariant violation
    import ksblow.solver as solver_mod

    real = solver_mod.solve_banded

    def nan_at_node_40(*args):
        x = real(*args)
        x[40] = np.nan
        return x

    monkeypatch.setattr(solver_mod, "solve_banded", nan_at_node_40)
    out = tmp_path / "nan"
    assert main(["simulate", "--config", _write(tmp_path, _simulate_doc(out))]) == 3
    detail = json.loads((out / "manifest.json").read_text())["failure"]["detail"]
    assert "monotonicity violated by nan at s = " in detail


def _nan_in_second_column(monkeypatch):
    """Put a NaN at node 40 of the second cutoff's column in the fourth
    shared solve of a sweep.  The sweep sees one usable CPU, so its columns
    are one solve in this process."""
    import ksblow.solver as solver_mod

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    real = solver_mod.solve_banded
    calls = []

    def nan_in_second_column(matrix, rhs):
        x = real(matrix, rhs)
        calls.append(1)
        if len(calls) == 4:
            x[40, 1] = np.nan
        return x

    monkeypatch.setattr(solver_mod, "solve_banded", nan_in_second_column)


def test_blowup_sweep_failure_exit3(tmp_path, monkeypatch):
    # a failed cutoff ends blowup like simulate, instead of analysing the
    # cutoffs that survived
    import ksblow.solver as solver_mod
    from ksblow import (SignalProfile, SolverSection, SystemParams, build_mesh, chi_eval,
                        proper_sweep, validate)

    out = tmp_path / "bsweep"
    doc = _simulate_doc(out, eps_list=[0.04, 0.02])
    doc["blowup"] = {"eta": 0.01}
    # the survivor's solo run on the sweep's grid: a sweep of one capped at
    # the shared dt
    sec = doc["solver"]
    params = validate(SystemParams(**SCENARIO_SYSTEM))
    profile = SignalProfile.from_params(params)
    s = build_mesh(sec["s_max"], sec["N"])
    dt = min(solver_mod.cap_cfl_bound(np.diff(s), chi_eval(eps, s), 3 * profile.F(s),
                                      params.c0, 0.4) for eps in sec["eps_list"])
    (solo,), _ = proper_sweep(params, SolverSection(
        s_max=sec["s_max"], N=sec["N"], eps_list=(0.04,), t_end=sec["t_end"],
        output_times=tuple(sec["output_times"]), max_dt=dt), profile)

    _nan_in_second_column(monkeypatch)
    assert main(["blowup", "--config", _write(tmp_path, doc)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"]["kind"] == "solver"
    [[eps, detail]] = manifest["failure"]["detail"]
    assert eps == 0.02
    assert detail.startswith(f"monotonicity violated by nan at s = {s[39]}, t = ")
    [run] = manifest["runs"]
    assert run["epsilon"] == 0.04
    for key in ("n_steps", "n_factorizations", "cfl_resets", "dt_history", "violations"):
        assert run[key] == solo.metadata[key], key
    assert not (out / "blowup_report.json").exists()


def test_simulate_sweep_failure_exit3(tmp_path, monkeypatch, capsys):
    # a failed cutoff leaves the survivors' outputs and the report, and the
    # manifest holds the survivors' runs and the failed (epsilon, message)
    _nan_in_second_column(monkeypatch)
    out = tmp_path / "ssweep"
    assert main(["simulate", "--config",
                 _write(tmp_path, _simulate_doc(out, eps_list=[0.04, 0.02]))]) == 3
    [failed] = json.loads((out / "sweep_report.json").read_text())["failures"]
    assert failed["epsilon"] == 0.02
    assert failed["message"].startswith("monotonicity violated by nan at s = ")
    assert capsys.readouterr().err == \
        f"solver failure: ((0.02, {failed['message']!r}),)\n"
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["eps_0.04"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"] == {"kind": "solver", "detail": [[0.02, failed["message"]]]}
    assert [run["epsilon"] for run in manifest["runs"]] == [0.04]


def test_simulate_dead_sweep_block_exit3(tmp_path, monkeypatch, capsys):
    # a forked block that ends without a result fails the sweep: exit 3, the
    # failure in the manifest and on stderr, and no run emitted
    import signal

    import ksblow.solver as solver_mod

    parent, real = os.getpid(), solver_mod._march

    def march(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(solver_mod, "_march", march)
    out = tmp_path / "dead"
    assert main(["simulate", "--config",
                 _write(tmp_path, _simulate_doc(out, eps_list=[0.04, 0.02]))]) == 3
    detail = f"no result for cutoffs [0.02] (wait status {int(signal.SIGKILL)})"
    assert capsys.readouterr().err == f"solver failure: {detail}\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"] == {"kind": "solver", "detail": detail}
    assert manifest["runs"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_simulate_step_underflow_leaves_no_run(tmp_path, capsys):
    # every cutoff fails on the first step: none is emitted as a run
    out = tmp_path / "uf"
    doc = _simulate_doc(out, eps_list=[0.04, 0.01], n_cells=128, t_end=0.002)
    doc["solver"]["cfl_safety"] = 1e-300
    assert main(["simulate", "--config", _write(tmp_path, doc)]) == 3
    assert capsys.readouterr().err.startswith(
        "solver failure: ((0.04, 'step-size underflow: dt = ")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep_report.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"] == []
    assert [eps for eps, _ in manifest["failure"]["detail"]] == [0.04, 0.01]
    report = json.loads((out / "sweep_report.json").read_text())
    assert [f["epsilon"] for f in report["failures"]] == [0.04, 0.01]
    assert report["pair_violations"] == []


@pytest.mark.parametrize("command, drop, message", [
    ("simulate", "output", "no output directory: set output.directory or pass --out"),
    ("simulate", "solver", "missing solver section"),
    ("blowup", "blowup", "missing blowup section"),
    ("weak-residual", "solver.epsilon", "solver.epsilon is required for weak-residual"),
], ids=["no-output", "no-solver", "no-blowup", "weak-residual-no-epsilon"])
def test_config_errors_exit1_and_create_nothing(tmp_path, capsys, monkeypatch, command,
                                                drop, message):
    monkeypatch.chdir(tmp_path)  # a write into the working directory shows here
    doc = _blowup_doc(tmp_path / "x")
    if drop == "solver.epsilon":
        del doc["solver"]["epsilon"]
    else:
        del doc[drop]
    assert main([command, "--config", _write(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", ["simulate", "blowup", "weak-residual"])
@pytest.mark.parametrize("t_end", [0.0, -1.0])
def test_t_end_must_be_positive(tmp_path, capsys, monkeypatch, command, t_end):
    # a horizon <= 0 took no step and exited 0; weak-residual blamed the
    # time window of its first field instead
    import ksblow.solver as solver_mod

    def no_solve(*_args):
        raise AssertionError("stepped with t_end <= 0")

    monkeypatch.setattr(solver_mod, "solve_banded", no_solve)
    doc = _blowup_doc(tmp_path / "x")
    doc["solver"].update(t_end=t_end, output_times=[])
    if command == "weak-residual":
        doc["solver"]["output_times"] = [0.0, 0.002]
    assert main([command, "--config", _write(tmp_path, doc)]) == 1
    assert f"config error: solver.t_end must be > 0 (got {t_end})" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, value, message", [
    ("eps_list", [1e-2, 1e-9], "solver.eps_list: 1e-09 is not resolved by the mesh"),
    ("epsilon", 1e-9, "solver.epsilon: 1e-09 is not resolved by the mesh"),
])
def test_unresolved_cutoff_is_a_config_error(tmp_path, capsys, monkeypatch, key, value,
                                             message):
    # every cutoff is checked against the mesh before the first step
    import ksblow.solver as solver_mod

    def no_solve(*_args):
        raise AssertionError("stepped before every cutoff was checked")

    monkeypatch.setattr(solver_mod, "solve_banded", no_solve)
    doc = _simulate_doc(tmp_path / "x")
    doc["solver"][key] = value
    assert main(["simulate", "--config", _write(tmp_path, doc)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_weak_residual_rejects_unknown_field_before_solving(tmp_path, monkeypatch, capsys):
    import ksblow.cli as cli_mod

    def no_solve(*args, **kwargs):
        pytest.fail("solved before the fields were checked")

    monkeypatch.setattr(cli_mod, "solve_regularized", no_solve)
    doc = _simulate_doc(tmp_path / "wrf")
    doc["weak_residual"] = {"fields": ["interior", "bogus"]}
    assert main(["weak-residual", "--config", _write(tmp_path, doc)]) == 1
    assert "unknown weak_residual fields: ['bogus']" in capsys.readouterr().err


@pytest.mark.parametrize("times, message", [
    ([0.01], "field 'interior' needs at least two snapshots (got 1)"),
    ([], "field 'interior' needs at least two snapshots (got 0)"),
    ([0.005, 0.01], "field 'interior' t-support (0.0025, 0.0085) starts before the "
                    "first snapshot t = 0.005"),
], ids=["t_end-only", "none", "late-start"])
def test_weak_residual_needs_snapshots_over_the_field(tmp_path, capsys, monkeypatch,
                                                      times, message):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("solved before checking the field window")

    monkeypatch.setattr("ksblow.cli.solve_regularized", no_solve)
    doc = _simulate_doc(tmp_path / "span")
    doc["solver"]["output_times"] = times
    doc["weak_residual"] = {"refine": False, "fields": ["interior"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero on the way
        assert main(["weak-residual", "--config", _write(tmp_path, doc)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "span").exists()


@pytest.mark.parametrize("command", ["simulate", "verify-lemmas", "blowup", "weak-residual"])
@pytest.mark.parametrize("source", ["output.directory", "--out"])
def test_empty_output_directory_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                  command, source):
    # Path("") is the working directory, which must stay untouched
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    doc = _simulate_doc("" if source == "output.directory" else tmp_path / "configured")
    doc["blowup"] = {"eta": 0.01}
    cfg = _write(tmp_path, doc)
    argv = [command, "--config", cfg] + (["--out", ""] if source == "--out" else [])
    assert main(argv) == 1
    assert f"config error: {source} is empty" in capsys.readouterr().err
    assert list(work.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "work"]


def test_verify_lemmas_huge_gamma_is_a_construction_failure(tmp_path, capsys):
    out = tmp_path / "huge"
    doc = _base_doc(lemma_sweep={"tuples": [_GOOD_TUPLE, dict(_GOOD_TUPLE, gamma=1e300)]},
                    output={"directory": str(out)})
    assert main(["verify-lemmas", "--config", _write(tmp_path, doc)]) == 4
    assert "gamma = 1e+300 is too large" in capsys.readouterr().err
    rows = (out / "lemma_checks.csv").read_text().splitlines()[1:]
    assert rows[0].endswith(",True")
    assert rows[1].split(",")[8] == "False"  # constructed


def test_verify_lemmas_rows_do_not_depend_on_the_batch(tmp_path):
    # an unconstructible tuple first and one among the rest, more constructed
    # tuples than one chunk certifies: each row, and the first constructed
    # tuple's margin_scan.csv, is what the tuple gives alone, in input order
    from ksblow.analysis import CHUNK

    tuples = [dict(_GOOD_TUPLE, delta=0.6), _N8_TUPLE,
              *[dict(_GOOD_TUPLE, gamma=20.0 * 1.25 ** j) for j in range(CHUNK + 3)],
              dict(_GOOD_TUPLE, gamma=1e300), _GOOD_TUPLE]

    def run(name, items):
        out = tmp_path / name
        doc = _base_doc(lemma_sweep={"tuples": items}, output={"directory": str(out)})
        main(["verify-lemmas", "--config", _write(tmp_path, doc, f"{name}.json")])
        return out

    batch = run("batch", tuples)
    rows = (batch / "lemma_checks.csv").read_text().splitlines()
    alone = [run(f"t{k}", [item]) for k, item in enumerate(tuples)]
    assert rows[1:] == [(out / "lemma_checks.csv").read_text().splitlines()[1]
                        for out in alone]
    assert [row.split(",")[8] for row in rows[1:]] == \
        ["False"] + ["True"] * (CHUNK + 4) + ["False", "True"]
    assert (batch / "margin_scan.csv").read_bytes() == \
        (alone[1] / "margin_scan.csv").read_bytes()


def test_verify_lemmas_huge_n_is_a_construction_failure(tmp_path, capsys):
    out = tmp_path / "huge"
    doc = _base_doc(lemma_sweep={"tuples": [_GOOD_TUPLE, dict(_GOOD_TUPLE, n=1e200)]},
                    output={"directory": str(out)})
    assert main(["verify-lemmas", "--config", _write(tmp_path, doc)]) == 4
    assert "n must be small enough that n^4 is a finite double" in capsys.readouterr().err
    rows = (out / "lemma_checks.csv").read_text().splitlines()[1:]
    assert rows[0].endswith(",True")
    assert rows[1].startswith("1e+200,") and rows[1].split(",")[8] == "False"  # constructed


# an admissible tuple that passes with the bridge placed at R -+ rho on the s
# axis, but fails on the marched profile: its sampled margin is -3.40
# k0 gamma^(2/n) at s ~ 8.6e-3, past s_upper = (R + rho)^n ~ 1e-6
_N8_TUPLE = {"n": 8, "alpha": 5.0197, "f0": 155.1674, "R": 0.1608, "rho": 0.018,
             "xi": 3.9674, "delta": 0.7603, "gamma": 455.193}


def test_verify_lemmas_n8_tuple_fails_on_the_marched_profile(tmp_path, capsys):
    out = tmp_path / "n8"
    doc = _base_doc(lemma_sweep={"tuples": [_N8_TUPLE]}, output={"directory": str(out)})
    assert main(["verify-lemmas", "--config", _write(tmp_path, doc)]) == 4
    assert "FAIL" in capsys.readouterr().err
    lines = (out / "lemma_checks.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["constructed"] == "True" and row["feasible"] == "True"
    assert row["margin_ok"] == "False" and row["pass"] == "False"
    assert float(row["margin"]) < 0.0
    scan = np.array([[float(x) for x in line.split(",")]
                     for line in (out / "margin_scan.csv").read_text().splitlines()[1:]])
    s_worst = scan[np.argmin(scan[:, 2]), 0]
    assert 8e-3 < s_worst < 9.5e-3
    assert s_worst > (_N8_TUPLE["R"] + _N8_TUPLE["rho"]) ** 8


def _blowup_doc(out_dir):
    doc = _simulate_doc(out_dir)  # output times 0, 0.005, 0.01
    doc.update(test_function={"xi": 4.0, "delta": 0.8}, blowup={"eta": 0.01})
    return doc


def test_blowup_reports_lemma_certificate(tmp_path):
    out = tmp_path / "b"
    assert main(["blowup", "--config", _write(tmp_path, _blowup_doc(out))]) == 0
    report = json.loads((out / "blowup_report.json").read_text())
    cert = report["lemma_certificate"]
    assert cert["passed"] is True
    assert cert["ode_min_margin"] > 0.0 and cert["integral_margin"] > 0.0
    gamma = report["selection"]["gamma"]
    assert cert["kink_below_bridge"]["xi_over_gamma"] == pytest.approx(
        4.0 / gamma, rel=1e-15, abs=0.0)
    assert cert["kink_below_bridge"]["holds"] is True
    assert cert["n_power_cells"] > 0
    lo, hi = cert["ode_argmin_cell"]
    assert 0.0 < lo < hi


def test_blowup_failed_lemma_certificate_exits4(tmp_path, monkeypatch, capsys):
    import ksblow.cli as cli_mod

    real = cli_mod.verify_ode_inequality
    monkeypatch.setattr(cli_mod, "verify_ode_inequality", lambda tfs: (
        dataclasses.replace(report, min_margin=-1.0, passed=False) for report in real(tfs)))
    out = tmp_path / "b"
    assert main(["blowup", "--config", _write(tmp_path, _blowup_doc(out))]) == 4
    assert "lemma-check failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"]["kind"] == "lemma"
    cert = manifest["failure"]["lemma_certificate"]
    assert cert["passed"] is False and cert["ode_min_margin"] == -1.0
    assert not (out / "blowup_report.json").exists()


def test_config_c_sub_override_parses(tmp_path):
    doc = _base_doc(blowup={"eta": 0.1, "c_sub_override": 0.4})
    cfg = load_config(_write(tmp_path, doc))
    assert cfg.blowup.c_sub_override == 0.4
    assert cfg.blowup.t0 == 0.0
    assert cfg.blowup.betas == (1.0,)


def _run_python(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})


def test_import_leaves_out_unused_scipy_modules():
    # scipy.integrate, then scipy.linalg's package init (whose array-API
    # layer star-imports numpy) made up most of the start-up every command pays;
    # scipy's own package init, numpy.random (verify-lemmas imports it when it
    # draws) and numpy.polynomial (the Gauss-Legendre rules are a table) are
    # not paid either, while the LAPACK extension is loaded; a sweep forks its
    # blocks with os alone, so no process-pool or subprocess module is loaded
    heavy = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.linalg",
             "numpy.f2py", "numpy.ma", "unittest", "numpy.random", "numpy.polynomial",
             "scipy", "multiprocessing", "concurrent.futures", "subprocess")
    proc = _run_python(
        f"import sys; import ksblow.cli; print([m for m in {heavy!r} if m in sys.modules], "
        "'scipy.linalg._flapack' in sys.modules)")
    assert proc.stdout.strip() == "[] True"


@pytest.mark.parametrize("first, second", [("ksblow.solver", "scipy.linalg.lapack"),
                                           ("scipy.linalg.lapack", "ksblow.solver")])
def test_solver_lapack_routines_are_scipys_in_either_import_order(first, second):
    proc = _run_python(
        f"import importlib; importlib.import_module({first!r}); "
        f"importlib.import_module({second!r}); "
        "import sys, ksblow.solver as s, scipy.linalg.lapack as l; "
        "print(sys.modules['scipy.linalg._flapack'] is s._flapack, "
        "[n for n in ('dpttrf', 'dpttrs') if getattr(s, n) is getattr(l, n)])")
    assert proc.stdout.strip() == "True ['dpttrf', 'dpttrs']"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_verify_lemmas_keeps_its_heap_pages(tmp_path):
    # each tuple's temporaries stay below glibc's trim threshold, so the heap
    # top is not given back and faulted in again tuple after tuple (a check
    # that freed about 1 MB a tuple cost 15,000 faults here)
    cfg = _write(tmp_path, _base_doc(lemma_sweep={"count": 300, "seed": 1}))
    proc = _run_python(
        "import resource; from ksblow.cli import main; "
        "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        f"before = faults(); main(['verify-lemmas', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]); print(faults() - before)")
    assert int(proc.stdout) < 5000


def test_write_rows_cell_text(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, "a,b,c,d,e,f", [(True, 3, 1e-05, np.float64(1.0) / 3.0, "interior",
                                       np.bool_(False))])
    assert path.read_bytes() == b"a,b,c,d,e,f\nTrue,3.0,1e-05,0.3333333333333333,interior,False\n"


def test_console_entry_point(tmp_path):
    cfg = _write(tmp_path, _base_doc())
    proc = subprocess.run([sys.executable, "-m", "ksblow.cli", "validate",
                           "--config", cfg], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "feasible" in proc.stdout


def test_weak_residual_command(tmp_path):
    out = tmp_path / "wr"
    doc = _base_doc(
        solver={"epsilon": 0.01, "s_max": 4.0, "N": 96, "t_end": 0.01,
                "max_dt": 4e-5,
                "output_times": list(np.linspace(0.0, 0.01, 9))},
        weak_residual={"refine": False},
        output={"directory": str(out)})
    assert main(["weak-residual", "--config", _write(tmp_path, doc)]) == 0
    rows = (out / "residuals.csv").read_text().splitlines()
    assert rows[0] == "field,residual,scale,relative"
    assert len(rows) == 5


@pytest.mark.parametrize("N, base_floor", [(96, False), (256, True)])
def test_weak_residual_order_at_roundoff_is_null(tmp_path, N, base_floor):
    # constant_state's refined residual is roundoff at both sizes, and its base
    # residual too at N = 256.  A ratio with roundoff on either side measures
    # how far the other side sits above that floor, not a convergence rate
    # (19.5 at N = 96): the order reads null and is flagged in both cases.
    out = tmp_path / "wr"
    doc = _base_doc(
        solver={"epsilon": 0.01, "s_max": 4.0, "N": N, "t_end": 0.01,
                "max_dt": 4e-5,
                "output_times": list(np.linspace(0.0, 0.01, 9))},
        weak_residual={"refine": True},
        output={"directory": str(out)})
    assert main(["weak-residual", "--config", _write(tmp_path, doc)]) == 0
    payload = json.loads((out / "residuals.json").read_text())
    assert payload["at_roundoff"] == {"interior": False, "initial": False,
                                      "origin_window": False, "constant_state": True}
    for name, order in payload["orders"].items():
        if name == "constant_state":
            assert order is None
        else:
            assert isinstance(order, float)
    const = payload["refined"]["constant_state"]
    assert const["residual"] <= 1e-12 * const["scale"]
    const = payload["base"]["constant_state"]
    assert (const["residual"] <= 1e-12 * const["scale"]) == base_floor


def _key_paths(node, path=""):
    """The dotted key paths of a JSON document.  The elements of a list
    share the path ``<list>[]``, and a list of scalars adds no path."""
    if isinstance(node, dict):
        paths = set()
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            paths |= {sub} | _key_paths(value, sub)
        return paths
    if isinstance(node, list):
        return set().union(*(_key_paths(value, path + "[]") for value in node))
    return set()


def _prefixed(prefix, keys):
    return {prefix} | {f"{prefix}.{key}" for key in keys.split()}


_RUN_KEYS = ({"[].cfl_safety", "[].epsilon", "[].n", "[].n_factorizations", "[].n_steps",
              "[].violations", "[].wall_time_s", "[].cfl_resets"}
             | _prefixed("[].dt_history", "min max mean")
             | _prefixed("[].mesh", "N s1 s_max")
             | _prefixed("[].tolerances", "cap_slack monotone_slack"))
_RESET_KEYS = {"[].cfl_resets[].t", "[].cfl_resets[].s", "[].cfl_resets[].dt"}

_BLOWUP_KEYS = (
    {"betas", "epsilon", "lipschitz_estimate"}
    | _prefixed("lipschitz_location", "s t")
    | _prefixed("provenance", "N epsilon s_max times")
    | _prefixed("sup_w_over_s_beta", "1.0") | _prefixed("sup_w_over_s_beta.1.0", "value s t")
    | _prefixed("verdicts", "cap_ok finite_epsilon_trend lower_bound_ok riccati_domination_ok")
    | _prefixed("y_functional", "c_gamma cap_bound cap_headroom cap_ok domination_ok "
                                "first_violation_time lower_bound_margin_log10 lower_bound_t1 "
                                "lower_ok n_compared times tolerance y z")
    | _prefixed("y_functional.labels", "epsilon finite_epsilon_trend w_substitution")
    | _prefixed("y_functional.riccati", "A B T")
    | _prefixed("selection", "c_sub delta gamma kappa s0 xi")
    | _prefixed("selection.diagnostics", "K0 k0 kappa_rule exp_inequality_lhs "
                                         "gamma_floor_geometry gamma_floor_kappa probe_s probe_w "
                                         "s0_sinh_required s0_sinh_value s0_upper_bound w_source")
    | _prefixed("lemma_certificate", "integral_margin k0_rate n_power_cells ode_argmin_cell "
                                     "ode_min_margin passed")
    | _prefixed("lemma_certificate.kink_below_bridge", "holds role s_lower xi_over_gamma"))

_FIELDS = ("interior", "initial", "origin_window", "constant_state")
_RESIDUAL_KEYS = set().union(
    _prefixed("at_roundoff", " ".join(_FIELDS)), _prefixed("orders", " ".join(_FIELDS)),
    {"base", "refined"},
    *(_prefixed(f"base.{name}", "residual scale terms") for name in _FIELDS),
    *(_prefixed(f"base.{name}.terms", "advection diffusion forcing initial time")
      for name in _FIELDS),
    *(_prefixed(f"refined.{name}", "residual scale") for name in _FIELDS))


@pytest.mark.parametrize("command, report, keys, resets", [
    ("simulate", "sweep_report.json",
     {"eps_list", "failures", "max_violation", "pair_violations"}, False),
    ("blowup", "blowup_report.json", _BLOWUP_KEYS, True),
    ("weak-residual", "residuals.json", _RESIDUAL_KEYS, False),
])
def test_json_reports_have_pinned_key_trees(tmp_path, command, report, keys, resets):
    # the nested key set of each JSON report and of the manifest's runs; an
    # adaptive run has cfl_resets entries, a sweep's shared step and a step
    # capped by max_dt have none
    out = tmp_path / "out"
    if command == "simulate":
        doc = _simulate_doc(out, eps_list=[0.04, 0.02])
    elif command == "blowup":
        doc = _blowup_doc(out)
    else:
        doc = _base_doc(solver={"epsilon": 0.01, "s_max": 4.0, "N": 96, "t_end": 0.01,
                                "max_dt": 4e-5,
                                "output_times": list(np.linspace(0.0, 0.01, 9))},
                        output={"directory": str(out)})
    assert main([command, "--config", _write(tmp_path, doc)]) == 0
    assert _key_paths(json.loads((out / report).read_text())) == keys
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    assert _key_paths(runs) == _RUN_KEYS | (_RESET_KEYS if resets else set())
