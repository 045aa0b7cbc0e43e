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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (build_testfunction, blowup_indicator, indicator_series,
                       select_blowup_params, verify_integral_bound,
                       verify_ode_inequality, y_functional)
from .config import (LemmaSweepSection, RunConfig, SolverSection, TestFnSection,
                     config_to_dict, load_config)
from .errors import (ConfigError, KsblowError, ParameterError, SelectionError,
                     SolverError)
from .params import (SystemParams, TestFnParams, default_testfn_params,
                     delta_lower_bound, validate)
from .signal import SignalProfile
from .solver import (SolverConfig, build_mesh, measured_c_sub, proper_sweep,
                     solve_regularized)
from .transform import w0_from_density, write_csv
from .weakform import field_library, weak_residual

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
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # keep the documents strict JSON
    return obj


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path: Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                              and not isinstance(v, bool) else str(v) for v in row) + "\n")


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
    directory = out_flag or cfg.output_directory
    if directory is None:
        raise ConfigError("no output directory: set output.directory or pass --out")
    return Path(directory)  # created by the first file written into it


def _solver_section(cfg: RunConfig) -> SolverSection:
    if cfg.solver is None:
        raise ConfigError("missing solver section")
    return cfg.solver


def _solve(params, profile, sec: SolverSection, runs: list):
    """Solve the section's problem: a cutoff sweep when ``eps_list`` is set,
    else one run.  Each finished run's metadata is appended to ``runs``.

    Returns (w0, trajectories, sweep report or None).
    """
    if sec.s_max < 4.0:
        raise ConfigError(f"solver.s_max must be >= 4 (got {sec.s_max!r})")
    try:
        mesh = build_mesh(sec.s_max, sec.N, sec.ratio)
    except ParameterError as exc:
        # each build_mesh message opens with the argument at fault, which is
        # the solver key of the same name
        raise ConfigError(f"solver.{exc}") from exc
    w0 = w0_from_density(params.c0, mesh.nodes)
    base = SolverConfig(epsilon=sec.epsilon if sec.epsilon is not None else 0.5,
                        t_end=sec.t_end, output_times=sec.output_times,
                        cfl_safety=sec.cfl_safety, max_dt=sec.max_dt)
    if sec.eps_list:
        trajectories, report = proper_sweep(params, w0, base, sec.eps_list,
                                            profile=profile)
    else:
        if sec.epsilon is None:
            raise ConfigError("solver.epsilon (or eps_list) is required")
        trajectories, report = [solve_regularized(params, w0, base, profile)], None
    runs.extend(traj.metadata for traj in trajectories)
    return w0, trajectories, report


def _solver_failure(out_dir: Path, command: str, cfg: RunConfig, runs, detail) -> int:
    _manifest(out_dir, command, cfg, runs, failure={"kind": "solver", "detail": detail})
    print(f"solver failure: {detail}", file=sys.stderr)
    return EXIT_SOLVER


def _emit_run(traj, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    for k, t in enumerate(traj.times):
        write_csv(traj.mass_function(k), run_dir / f"snapshot_t{t:g}.csv")
    _write_rows(run_dir / "indicator_beta1.csv", "t,indicator",
                [(t, value) for t, value, _ in indicator_series(traj, 1.0)])


def cmd_validate(cfg_path: str) -> int:
    cfg = load_config(cfg_path)
    params = validate(cfg.system)
    bound = repr(params.delta_bound) if params.f0 > 0 else "undefined (f0 = 0)"
    print(f"n = {params.n}, alpha = {params.alpha}, f0 = {params.f0}")
    print(f"f0 threshold  = {params.threshold!r}")
    print(f"delta bound   = {bound}")
    print(f"feasible      = {params.feasible}")
    return EXIT_OK if params.feasible else EXIT_INFEASIBLE


def cmd_simulate(cfg_path: str, out_flag=None) -> int:
    cfg = load_config(cfg_path)
    out_dir = _resolve_out(cfg, out_flag)
    sec = _solver_section(cfg)
    params = validate(cfg.system)
    runs = []
    try:
        _, trajectories, report = _solve(params, SignalProfile.from_params(params), sec, runs)
    except SolverError as exc:
        return _solver_failure(out_dir, "simulate", cfg, runs, str(exc))
    if report is None:
        _emit_run(trajectories[0], out_dir)
    else:
        for traj in trajectories:
            _emit_run(traj, out_dir / f"eps_{traj.epsilon:g}")
        _write_json(out_dir / "sweep_report.json", {
            "eps_list": list(report.eps_list),
            "pair_violations": list(report.pair_violations),
            "max_violation": report.max_violation,
            "failures": [{"epsilon": e, "message": m} for e, m in report.failures],
        })
        if report.failures:
            return _solver_failure(out_dir, "simulate", cfg, runs, report.failures)
    _manifest(out_dir, "simulate", cfg, runs)
    return EXIT_OK


def _default_lemma_grid(system: SystemParams, count: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = system.n
        alpha = float(np.clip(system.alpha + rng.uniform(-0.3, 0.3), 2.05, n - 0.05))
        R = float(np.clip(system.R + rng.uniform(-0.1, 0.1), 0.15, 0.9))
        rho = float(np.clip(system.rho + rng.uniform(-0.03, 0.03), 0.01, 0.45 * R))
        thr = SystemParams(n, alpha, 1.0, R, rho, system.c0).threshold
        f0 = system.f0 * rng.uniform(0.8, 1.5)
        if f0 <= thr:
            f0 = thr * rng.uniform(1.2, 2.0)
        bound = delta_lower_bound(n, alpha, f0)
        if bound >= 1.0:
            continue
        delta = float(bound + (1.0 - bound) * rng.uniform(0.3, 0.9))
        xi = float(rng.uniform(4.0 - 4.0 / n + 0.1, 4.0))
        gamma = float(4.0 / (R - rho) * 2.0 ** rng.uniform(0.5, 4.0))
        out.append({"n": n, "alpha": alpha, "f0": f0, "R": R, "rho": rho,
                    "xi": xi, "delta": delta, "gamma": gamma})
    return out


def cmd_verify_lemmas(cfg_path: str, out_flag=None) -> int:
    cfg = load_config(cfg_path)
    out_dir = _resolve_out(cfg, out_flag)
    sweep = cfg.lemma_sweep or LemmaSweepSection()
    if sweep.tuples:
        grid = [dict(t) for t in sweep.tuples]
    else:
        if sweep.count <= 0:
            raise ConfigError("lemma_sweep grid is empty")
        grid = _default_lemma_grid(cfg.system, sweep.count, sweep.seed)

    rows = []
    failing = []
    scan_written = False
    for item in grid:
        system = SystemParams(n=item["n"], alpha=item["alpha"], f0=item["f0"],
                              R=item["R"], rho=item["rho"], c0=cfg.system.c0)
        row = {key: item[key] for key in ("n", "alpha", "f0", "R", "rho",
                                          "xi", "delta", "gamma")}
        try:
            system = validate(system)
            feasible = system.feasible
            tf = build_testfunction(system, item["xi"], item["delta"], item["gamma"])
            ode = verify_ode_inequality(tf)
            if not scan_written:
                # full margin scan for the first constructible tuple
                _write_rows(out_dir / "margin_scan.csv", "s,margin",
                            list(zip(ode.grid, ode.margins)))
                scan_written = True
            bound = verify_integral_bound(tf)
            row.update(constructed=True, feasible=feasible,
                       margin=ode.min_margin, margin_ok=ode.passed,
                       integral=bound.numeric, integral_bound=bound.bound,
                       integral_ok=bound.passed)
            row["pass"] = bool(feasible and ode.passed and bound.passed)
        except ParameterError as exc:
            row.update(constructed=False, feasible=False, margin=float("nan"),
                       margin_ok=False, integral=float("nan"),
                       integral_bound=float("nan"), integral_ok=False)
            row["pass"] = False
            row["error"] = str(exc)
        rows.append(row)
        if not row["pass"]:
            failing.append(row)

    header = ("n,alpha,f0,R,rho,xi,delta,gamma,constructed,feasible,"
              "margin,margin_ok,integral,integral_bound,pass")
    _write_rows(out_dir / "lemma_checks.csv", header, [
        (r["n"], r["alpha"], r["f0"], r["R"], r["rho"], r["xi"], r["delta"], r["gamma"],
         r["constructed"], r["feasible"], r["margin"], r["margin_ok"],
         r["integral"], r["integral_bound"], r["pass"]) for r in rows])
    _manifest(out_dir, "verify-lemmas", cfg,
              runs=[{"tuples": len(rows), "failures": len(failing)}])
    if failing:
        for row in failing:
            print(f"FAIL: {row}", file=sys.stderr)
        return EXIT_LEMMA
    return EXIT_OK


def cmd_blowup(cfg_path: str, out_flag=None) -> int:
    cfg = load_config(cfg_path)
    out_dir = _resolve_out(cfg, out_flag)
    params = validate(cfg.system)
    if not params.feasible:
        print(f"infeasible: f0 = {params.f0} <= threshold {params.threshold!r}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    if cfg.blowup is None:
        raise ConfigError("missing blowup section")
    sec = _solver_section(cfg)
    blow = cfg.blowup
    t1 = blow.t0 + blow.eta / 2.0
    if not any(abs(t - t1) <= 1e-12 * max(1.0, t1) for t in sec.output_times):
        raise ConfigError(f"output_times must contain t0 + eta/2 = {t1}")

    runs = []
    try:
        w0, trajectories, sweep_report = _solve(params, SignalProfile.from_params(params),
                                                sec, runs)
    except SolverError as exc:
        return _solver_failure(out_dir, "blowup", cfg, runs, str(exc))
    if sweep_report is not None and sweep_report.failures:
        return _solver_failure(out_dir, "blowup", cfg, runs, sweep_report.failures)
    traj = trajectories[-1]

    c_sub = blow.c_sub_override if blow.c_sub_override is not None \
        else measured_c_sub(traj, w0)

    tf_section = cfg.test_function or TestFnSection()
    xi, delta = tf_section.xi, tf_section.delta
    if delta is None:
        delta = default_testfn_params(params).delta
    tf_seed = TestFnParams(xi=xi, delta=delta, gamma=8.0 / (params.R - params.rho))

    try:
        selection = select_blowup_params(
            blow.t0, blow.eta, params.c0, c_sub, params, tf_seed,
            w_probe=lambda s: traj.w_at(s, t1))
    except SelectionError as exc:
        _manifest(out_dir, "blowup", cfg, runs,
                  failure={"kind": "selection", "failing": exc.failing,
                           "detail": str(exc)})
        print(f"parameter selection failure: {exc}", file=sys.stderr)
        return EXIT_SELECTION

    tf = build_testfunction(params, xi, delta, selection.gamma)
    y_rep = y_functional(traj, tf, selection.kappa, t1)
    report = blowup_indicator(traj, blow.betas, y_report=y_rep)

    _emit_run(traj, out_dir / "run")
    _write_rows(out_dir / "y_t.csv", "t,y,z",
                list(zip(y_rep.times, y_rep.y, y_rep.z)))
    payload = report.to_json_dict()
    payload["selection"] = {
        "kappa": selection.kappa, "s0": selection.s0, "gamma": selection.gamma,
        "c_sub": c_sub, "xi": xi, "delta": delta,
        "diagnostics": selection.diagnostics,
    }
    _write_json(out_dir / "blowup_report.json", payload)
    _manifest(out_dir, "blowup", cfg, runs)
    return EXIT_OK


def cmd_weak_residual(cfg_path: str, out_flag=None) -> int:
    cfg = load_config(cfg_path)
    out_dir = _resolve_out(cfg, out_flag)
    # one run at solver.epsilon; an eps_list is not swept here
    sec = replace(_solver_section(cfg), eps_list=None)
    if sec.epsilon is None:
        raise ConfigError("solver.epsilon is required for weak-residual")
    wr = cfg.weak_residual
    library = field_library(sec.s_max, sec.t_end, epsilon=sec.epsilon,
                            constant_window=wr.constant_window)
    unknown = [name for name in wr.fields if name not in library]
    if unknown:
        raise ConfigError(f"unknown weak_residual fields: {unknown}")
    params = validate(cfg.system)
    profile = SignalProfile.from_params(params)
    runs = []

    def residuals_for(section):
        _, (traj,), _ = _solve(params, profile, section, runs)
        return {name: weak_residual(traj, library[name], profile) for name in wr.fields}

    try:
        base_res = residuals_for(sec)
        rows = [(name, rep.residual, rep.scale, rep.relative)
                for name, rep in base_res.items()]
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
            payload["orders"] = {
                name: float(np.log2(max(base_res[name].residual, 1e-300)
                                    / max(fine_res[name].residual, 1e-300)))
                for name in base_res}
    except SolverError as exc:
        return _solver_failure(out_dir, "weak-residual", cfg, runs, str(exc))

    _write_rows(out_dir / "residuals.csv", "field,residual,scale,relative", rows)
    _write_json(out_dir / "residuals.json", payload)
    _manifest(out_dir, "weak-residual", cfg, runs)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ksblow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "simulate", "verify-lemmas", "blowup", "weak-residual"):
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
    try:
        if args.command == "validate":
            return cmd_validate(args.config)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        if args.command == "verify-lemmas":
            return cmd_verify_lemmas(args.config, args.out)
        if args.command == "blowup":
            return cmd_blowup(args.config, args.out)
        if args.command == "weak-residual":
            return cmd_weak_residual(args.config, args.out)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KsblowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
