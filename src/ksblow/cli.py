"""Command-line entry point.

Subcommands::

    ksblow validate       --config cfg.json
    ksblow simulate       --config cfg.json [--out DIR]
    ksblow verify-lemmas  --config cfg.json [--out DIR]
    ksblow blowup         --config cfg.json [--out DIR]
    ksblow weak-residual  --config cfg.json [--out DIR]

Exit codes are a stable contract: 0 ok, 1 config or usage error,
2 infeasible, 3 solver failure, 4 lemma-check failure, 5 parameter-selection
failure.

Every emitted file is declared in the run manifest with its sha256 hash;
identical configs reproduce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analysis import (build_testfunction, blowup_indicator, indicator_series,
                       select_blowup_params, verify_integral_bound,
                       verify_ode_inequality, y_functional)
from .config import (LemmaSweepSection, LemmaTuple, RunConfig, SolverSection,
                     TestFnSection, config_to_dict, load_config)
from .errors import (ConfigError, KsblowError, ParameterError, SelectionError,
                     SolverError)
from .params import (SystemParams, default_delta, delta_lower_bound, f0_threshold,
                     validate)
from .signal import SignalProfile
from .solver import measured_c_sub, proper_sweep, solve_regularized
from .transform import write_csv, write_rows
from .weakform import check_support, field_library, weak_residual

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_SOLVER = 3
EXIT_LEMMA = 4
EXIT_SELECTION = 5


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()  # a numpy scalar as the Python float, int or bool
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # keep the documents strict JSON
    return obj


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(out_dir: Path, command: str, cfg: RunConfig, runs, failure=None) -> None:
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            files[str(path.relative_to(out_dir))] = _sha256(path)
    payload = {
        "command": command,
        "config": config_to_dict(cfg),
        "files": files,
        "runs": runs,
    }
    if failure is not None:
        payload["failure"] = failure
    _write_json(out_dir / "manifest.json", payload)


def _resolve_out(cfg: RunConfig, out_flag) -> Path:
    if out_flag is not None:
        directory, source = out_flag, "--out"
    elif cfg.output is not None:
        directory, source = cfg.output.directory, "output.directory"
    else:
        raise ConfigError("no output directory: set output.directory or pass --out")
    if not directory:
        # Path("") is the working directory
        raise ConfigError(f"{source} is empty: name an output directory")
    path = Path(directory)  # created by the first file written into it
    if (file := next((p for p in (path, *path.parents) if p.is_file()), None)) is not None:
        raise ConfigError(f"{source} {directory} is not a directory: {file} is a file")
    return path


def _solver_section(cfg: RunConfig) -> SolverSection:
    """The solver section, with a positive horizon: checked before anything
    reads it (weak-residual's field windows are fractions of t_end)."""
    if cfg.solver is None:
        raise ConfigError("missing solver section")
    if not cfg.solver.t_end > 0.0:
        raise ConfigError(f"solver.t_end must be > 0 (got {cfg.solver.t_end})")
    return cfg.solver


def _solve(params, profile, sec: SolverSection, runs: list):
    """Solve the section's problem: a cutoff sweep when ``eps_list`` is set,
    else one run; the solver checks the section before any step.  Each
    finished run's metadata is appended to ``runs``.

    Returns (trajectories, sweep report or None).
    """
    try:
        if sec.eps_list:
            trajectories, report = proper_sweep(params, sec, profile)
        else:
            trajectories, report = [solve_regularized(params, sec, profile)], None
    except ParameterError as exc:
        # each of these messages opens with the argument at fault, which is
        # the solver key of the same name
        raise ConfigError(f"solver.{exc}") from exc
    runs.extend(traj.metadata for traj in trajectories)
    return trajectories, report


class _Failure(Exception):
    """A failed outcome as the CLI reports it: its exit ``code``, the
    manifest's failure ``record`` and, as the message, its stderr line.
    A command raises one for a failure that no other exception carries;
    ``main`` makes one of a SolverError or a SelectionError."""

    def __init__(self, code: int, record: dict, line: str):
        super().__init__(line)
        self.code, self.record = code, record


def _solver_failure(detail) -> _Failure:
    """Exit 3 with a SolverError's message or a sweep's (epsilon, message) pairs."""
    return _Failure(EXIT_SOLVER, {"kind": "solver", "detail": detail},
                    f"solver failure: {detail}")


_SNAPSHOT, _RUN_DIR = "snapshot_t{:g}.csv", "eps_{:g}"  # a run's files, a sweep's runs


def _check_names(key: str, values, name: str) -> None:
    """Distinct ``values`` of the solver setting ``key`` must give distinct
    output names, formatted by ``name`` to 6 digits: in a monotone list, the
    only kind the solver takes, a shared name is shared by neighbours."""
    for a, b in zip(values, values[1:]):
        if a != b and name.format(a) == name.format(b):
            raise ConfigError(f"solver.{key}: {a} and {b} share the output name {name.format(a)}")


def _emit_run(traj, run_dir: Path) -> None:
    for t, w in zip(traj.times, traj.snapshots):
        write_csv((traj.s, w), run_dir / _SNAPSHOT.format(t))
    write_rows(run_dir / "indicator_beta1.csv", "t,indicator",
               [(t, value) for t, value, _ in indicator_series(traj, 1.0)])


def cmd_validate(cfg: RunConfig) -> int:
    params = validate(cfg.system)
    bound = repr(params.delta_bound) if params.f0 > 0 else "undefined (f0 = 0)"
    print(f"n = {params.n}, alpha = {params.alpha}, f0 = {params.f0}")
    print(f"f0 threshold  = {params.threshold!r}")
    print(f"delta bound   = {bound}")
    print(f"feasible      = {params.feasible}")
    return EXIT_OK if params.feasible else EXIT_INFEASIBLE


def cmd_simulate(cfg: RunConfig, out_dir: Path, runs: list) -> int:
    sec = _solver_section(cfg)
    _check_names("output_times", sec.output_times, _SNAPSHOT)
    _check_names("eps_list", sec.eps_list or (), _RUN_DIR)
    params = validate(cfg.system)
    trajectories, report = _solve(params, SignalProfile.from_params(params), sec, runs)
    if report is None:
        _emit_run(trajectories[0], out_dir)
        return EXIT_OK
    for traj in trajectories:
        _emit_run(traj, out_dir / _RUN_DIR.format(traj.epsilon))
    _write_json(out_dir / "sweep_report.json", {
        "eps_list": list(report.eps_list),
        "pair_violations": list(report.pair_violations),
        "max_violation": report.max_violation,
        "failures": [{"epsilon": e, "message": m} for e, m in report.failures],
    })
    if report.failures:
        raise _solver_failure(report.failures)
    return EXIT_OK


def _default_lemma_grid(system: SystemParams, count: int, seed: int):
    # imported here, its one use, so the other commands start without it
    from numpy.random import default_rng

    rng = default_rng(seed)
    out = []
    while len(out) < count:
        n = system.n
        alpha = min(max(system.alpha + rng.uniform(-0.3, 0.3), 2.05), n - 0.05)
        R = min(max(system.R + rng.uniform(-0.1, 0.1), 0.15), 0.9)
        rho = min(max(system.rho + rng.uniform(-0.03, 0.03), 0.01), 0.45 * R)
        thr = f0_threshold(n, alpha)
        f0 = system.f0 * rng.uniform(0.8, 1.5)
        if f0 <= thr:
            f0 = thr * rng.uniform(1.2, 2.0)
        bound = delta_lower_bound(n, alpha, f0)
        if bound >= 1.0:
            continue
        delta = float(bound + (1.0 - bound) * rng.uniform(0.3, 0.9))
        xi = float(rng.uniform(4.0 - 4.0 / n + 0.1, 4.0))
        gamma = float(4.0 / (R - rho) * 2.0 ** rng.uniform(0.5, 4.0))
        out.append(LemmaTuple(n=n, alpha=alpha, f0=f0, R=R, rho=rho,
                              xi=xi, delta=delta, gamma=gamma))
    return out


def cmd_verify_lemmas(cfg: RunConfig, out_dir: Path, runs: list) -> int:
    sweep = cfg.lemma_sweep or LemmaSweepSection()
    grid = sweep.tuples
    if not grid:
        if sweep.count <= 0:
            raise ConfigError("lemma_sweep grid is empty")
        grid = _default_lemma_grid(cfg.system, sweep.count, sweep.seed)

    rows, built = [], []  # built: (row, test function) of the constructed tuples
    for item in grid:
        system = SystemParams(n=item.n, alpha=item.alpha, f0=item.f0,
                              R=item.R, rho=item.rho, c0=cfg.system.c0)
        row = dict(vars(item))
        rows.append(row)
        try:
            # validates the system with the test-function exponents
            tf = build_testfunction(system, item.xi, item.delta, item.gamma)
        except ParameterError as exc:
            row.update(constructed=False, feasible=False, margin=float("nan"),
                       margin_ok=False, integral=float("nan"),
                       integral_bound=float("nan"), integral_ok=False)
            row["pass"] = False
            row["error"] = str(exc)
            continue
        row.update(constructed=True, feasible=system.feasible)
        built.append((row, tf))

    for k, ((row, tf), ode) in enumerate(zip(built, verify_ode_inequality(tf for _, tf in built))):
        if k == 0:
            # the cover's cell bounds for the first constructible tuple
            write_rows(out_dir / "margin_scan.csv", "s_lo,s_hi,margin_bound",
                       ode.cells.tolist())
        bound = verify_integral_bound(tf)
        row.update(margin=ode.min_margin, margin_ok=ode.passed,
                   integral=bound.integral, integral_bound=bound.bound,
                   integral_ok=bound.passed)
        row["pass"] = bool(row["feasible"] and ode.passed and bound.passed)
    failing = [row for row in rows if not row["pass"]]

    header = ("n,alpha,f0,R,rho,xi,delta,gamma,constructed,feasible,"
              "margin,margin_ok,integral,integral_bound,pass")
    write_rows(out_dir / "lemma_checks.csv", header,
               [[r[key] for key in header.split(",")] for r in rows])
    runs.append({"tuples": len(rows), "failures": len(failing)})
    for row in failing:
        print(f"FAIL: {row}", file=sys.stderr)
    return EXIT_LEMMA if failing else EXIT_OK


def _lemma_certificate(tf) -> dict:
    """The differential inequality and the integral bound of ``tf``, both on
    the forcing profile the solver marches.  xi/gamma <= (R-rho)^n is
    reported beside them: every tuple that failed in a seeded random scan
    broke it, but it is not a proved condition, so it gates nothing."""
    [ode] = verify_ode_inequality([tf])
    bound = verify_integral_bound(tf)
    return {
        "ode_min_margin": ode.min_margin, "ode_argmin_cell": ode.argmin_cell,
        "n_power_cells": ode.n_power_cells,
        "k0_rate": ode.k0_rate, "integral_margin": bound.margin,
        "passed": ode.passed and bound.passed,
        "kink_below_bridge": {"xi_over_gamma": tf.kink, "s_lower": tf.profile.s_lower,
                              "holds": tf.kink <= tf.profile.s_lower,
                              "role": "measured sufficient condition, not a gate"},
    }


def cmd_blowup(cfg: RunConfig, out_dir: Path, runs: list) -> int:
    params = validate(cfg.system)
    if not params.feasible:
        print(f"infeasible: f0 = {params.f0} <= threshold {params.threshold!r}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    if cfg.blowup is None:
        raise ConfigError("missing blowup section")
    blow = cfg.blowup
    if not blow.eta > 0.0:
        raise ConfigError(f"blowup.eta must be > 0 (got {blow.eta})")
    if blow.c_sub_override is not None and not blow.c_sub_override > 0.0:
        raise ConfigError(f"blowup.c_sub_override must be > 0 (got {blow.c_sub_override})")
    for k, beta in enumerate(blow.betas):
        if not beta >= 1.0:
            raise ConfigError(f"blowup.betas[{k}] must be >= 1 (got {beta})")
    # one run at solver.epsilon; an eps_list is not swept here
    sec = replace(_solver_section(cfg), eps_list=None)
    if sec.epsilon is None:
        raise ConfigError("solver.epsilon is required for blowup")
    # t1 is the output time that matches t0 + eta/2: the run lands on it
    # exactly, so every reader takes snapshot k1
    t1 = blow.t0 + blow.eta / 2.0
    k1 = next((k for k, t in enumerate(sec.output_times)
               if abs(t - t1) <= 1e-12 * max(1.0, t1)), None)
    if k1 is None:
        raise ConfigError(f"output_times must contain t0 + eta/2 = {t1}")
    _check_names("output_times", sec.output_times, _SNAPSHOT)

    (traj,), _ = _solve(params, SignalProfile.from_params(params), sec, runs)
    c_sub = blow.c_sub_override if blow.c_sub_override is not None else measured_c_sub(traj)

    tf_section = cfg.test_function or TestFnSection()
    xi, delta = tf_section.xi, tf_section.delta
    if delta is None:
        delta = default_delta(params)

    selection = select_blowup_params(
        blow.eta, c_sub, params, xi, delta,
        w_probe=lambda s: np.interp(s, traj.s, traj.snapshots[k1]))

    tf = build_testfunction(params, xi, delta, selection.gamma)
    certificate = _lemma_certificate(tf)
    if not certificate["passed"]:
        raise _Failure(EXIT_LEMMA, {"kind": "lemma", "lemma_certificate": certificate},
                       f"lemma-check failure: gamma = {selection.gamma!r} is not certified "
                       f"(ODE margin {certificate['ode_min_margin']!r}, integral-bound margin "
                       f"{certificate['integral_margin']!r})")
    y_rep = y_functional(traj, tf, selection.kappa, traj.times[k1])
    report = blowup_indicator(traj, blow.betas, y_rep)

    _emit_run(traj, out_dir / "run")
    write_rows(out_dir / "y_t.csv", "t,y,z", list(zip(y_rep.times, y_rep.y, y_rep.z)))
    _write_json(out_dir / "blowup_report.json", {
        **asdict(report), "selection": asdict(selection), "lemma_certificate": certificate})
    return EXIT_OK


def cmd_weak_residual(cfg: RunConfig, out_dir: Path, runs: list) -> int:
    # one run at solver.epsilon; an eps_list is not swept here
    sec = replace(_solver_section(cfg), eps_list=None)
    if sec.epsilon is None:
        raise ConfigError("solver.epsilon is required for weak-residual")
    wr = cfg.weak_residual
    library = field_library(sec.s_max, sec.t_end, epsilon=sec.epsilon)
    unknown = [name for name in wr.fields if name not in library]
    if unknown:
        raise ConfigError(f"unknown weak_residual fields: {unknown}")
    for name in wr.fields:
        # the refined run keeps the first and last output time, so one check
        # before solving covers both
        check_support(library[name], sec.s_max, sec.output_times)
    params = validate(cfg.system)
    profile = SignalProfile.from_params(params)

    def residuals_for(section):
        (traj,), _ = _solve(params, profile, section, runs)
        return {name: weak_residual(traj, library[name], profile) for name in wr.fields}

    base_res = residuals_for(sec)
    rows = [(name, rep.residual, rep.scale, rep.relative) for name, rep in base_res.items()]
    payload = {"base": {name: {"residual": rep.residual, "scale": rep.scale,
                               "terms": rep.terms} for name, rep in base_res.items()}}
    if wr.refine:
        times = list(sec.output_times)
        dense = sorted(set(times) | {0.5 * (a + b) for a, b in zip(times, times[1:])})
        fine_res = residuals_for(replace(
            sec, N=2 * sec.N, max_dt=sec.max_dt / 2.0 if sec.max_dt else None,
            output_times=tuple(dense)))
        payload["refined"] = {name: {"residual": rep.residual, "scale": rep.scale}
                              for name, rep in fine_res.items()}
        # a ratio with a roundoff residual on either side measures that
        # floor, not an order
        floor = {name: base_res[name].at_roundoff or fine_res[name].at_roundoff
                 for name in base_res}
        payload["at_roundoff"] = floor
        payload["orders"] = {
            name: None if floor[name] else
            float(np.log2(max(base_res[name].residual, 1e-300)
                          / max(fine_res[name].residual, 1e-300)))
            for name in base_res}

    write_rows(out_dir / "residuals.csv", "field,residual,scale,relative", rows)
    _write_json(out_dir / "residuals.json", payload)
    return EXIT_OK


def main(argv=None) -> int:
    commands = {"validate": cmd_validate, "simulate": cmd_simulate,
                "verify-lemmas": cmd_verify_lemmas, "blowup": cmd_blowup,
                "weak-residual": cmd_weak_residual}
    parser = argparse.ArgumentParser(prog="ksblow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name != "validate":
            p.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage message; its own exit status 2
        # would read as "infeasible" in the exit-code contract
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    # the commands do the work; every manifest and every failure's exit
    # code, record and stderr line are made here
    runs, failure = [], None
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            return cmd_validate(cfg)
        out_dir = _resolve_out(cfg, args.out)
        code = commands[args.command](cfg, out_dir, runs)
        if code == EXIT_INFEASIBLE:
            return code  # blowup's gate, before any work: nothing to declare
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        failure = _solver_failure(str(exc))
    except SelectionError as exc:
        failure = _Failure(EXIT_SELECTION, {"kind": "selection", "failing": exc.failing,
                                            "detail": str(exc)},
                           f"parameter selection failure: {exc}")
    except _Failure as exc:
        failure = exc
    except KsblowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if failure is not None:
        print(failure, file=sys.stderr)
        code = failure.code
    _manifest(out_dir, args.command, cfg, runs, failure.record if failure else None)
    return code


if __name__ == "__main__":
    sys.exit(main())
