import hashlib
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ksblow.config as config_mod
from ksblow.cli import main
from ksblow.config import ConfigError, config_to_dict, load_config, parse_config

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


def test_unknown_key_rejected(tmp_path):
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


def _readme_schema() -> str:
    return re.search(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"),
                     re.DOTALL).group(1)


def test_readme_schema_matches_config_keys():
    # every documented key parses, and every accepted key is documented
    block = _readme_schema()
    parse_config(json.loads(re.sub(r"//.*", "", block)))
    documented = set(re.findall(r'"(\w+)"\s*:', block))
    tables = {name: keys for name, keys in vars(config_mod).items()
              if re.fullmatch(r"_[A-Z]+_KEYS", name)}
    accepted = set().union(*tables.values())
    assert len(tables) == 8
    assert documented <= accepted, documented - accepted
    assert accepted <= documented, accepted - documented


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
    ("t_end", math.nan, "solver.t_end must be finite"),
    ("output_times", [0.0, math.inf], "solver.output_times[1] must be finite"),
    ("eps_list", [0.01, -math.inf], "solver.eps_list[1] must be finite"),
    ("s_max", 1e308, "solver.s_max = 1e+308 is too large"),
], ids=["t_end-nan", "output_times-infinite", "eps_list-infinite", "s_max-overflow"])
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
    assert scan[0] == "s,margin"
    margins = np.array([float(line.split(",")[1]) for line in scan[1:]])
    assert np.min(margins) >= -1e-9


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


def test_blowup_sweep_failure_exit3(tmp_path, monkeypatch):
    # a failed cutoff ends blowup like simulate, instead of analysing the
    # cutoffs that survived
    import ksblow.solver as solver_mod
    from ksblow.errors import SolverError

    real = solver_mod.solve_regularized

    def flaky(params, w0, config, profile=None):
        if config.epsilon == 0.02:
            raise SolverError("synthetic breakdown at eps 0.02")
        return real(params, w0, config, profile)

    monkeypatch.setattr(solver_mod, "solve_regularized", flaky)
    out = tmp_path / "bsweep"
    doc = _simulate_doc(out, eps_list=[0.04, 0.02])
    doc["blowup"] = {"eta": 0.01}
    assert main(["blowup", "--config", _write(tmp_path, doc)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failure"]["kind"] == "solver"
    assert manifest["failure"]["detail"] == [[0.02, "synthetic breakdown at eps 0.02"]]
    assert [run["epsilon"] for run in manifest["runs"]] == [0.04]
    assert not (out / "blowup_report.json").exists()


def test_weak_residual_rejects_unknown_field_before_solving(tmp_path, monkeypatch, capsys):
    import ksblow.cli as cli_mod

    def no_solve(*args, **kwargs):
        pytest.fail("solved before the fields were checked")

    monkeypatch.setattr(cli_mod, "solve_regularized", no_solve)
    doc = _simulate_doc(tmp_path / "wrf")
    doc["weak_residual"] = {"fields": ["interior", "bogus"]}
    assert main(["weak-residual", "--config", _write(tmp_path, doc)]) == 1
    assert "unknown weak_residual fields: ['bogus']" in capsys.readouterr().err


def test_config_c_sub_override_parses(tmp_path):
    doc = _base_doc(blowup={"eta": 0.1, "c_sub_override": 0.4})
    cfg = load_config(_write(tmp_path, doc))
    assert cfg.blowup.c_sub_override == 0.4
    assert cfg.blowup.t0 == 0.0
    assert cfg.blowup.betas == (1.0,)


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
