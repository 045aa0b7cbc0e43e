"""Workloads and output checks of the ksblow benchmark.

Run as a script, this is the fresh single-process interpreter in which one
iteration of a workload runs; ``run.py`` starts one per iteration, with
``PYTHONPATH`` pointing at the checkout's ``src`` and BLAS limited to one
thread:

    python3 perfbench/workloads.py --workload sweep --seed 1 --trace 0 \
        --work .perfbench_out --result .perfbench_out/result.json

A real user runs each ksblow command in a fresh process, so every timed
iteration pays the same first-call costs that a user does.  The program is
driven only through ``ksblow.cli.main``.  An iteration runs the workload's
commands (timed), then checks their outputs (untimed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import ksblow.cli
from spans import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "w_ref.npz"
REFERENCE_CFL = 0.1          # a quarter of the default cfl_safety 0.4
SYSTEM = {"n": 3, "alpha": 2.5, "f0": 2.0, "R": 0.5, "rho": 0.1, "c0": 1.0}
BLOWUP_GAMMA_MIN = 14437.1   # acceptance criterion 8 on the pinned config
SWEEP_VIOLATION_MAX = 1e-6   # acceptance criterion 4, relative to the cap
INVARIANT_SLACK = 1e-8       # the solver's own range and monotone slack
W_ERR_MAX = 1e-2             # beyond this the run is wrong, not just less accurate
WORKLOADS = ("sweep", "blowup", "certify")


def workload_steps(name: str, seed: int, tiny: bool = False) -> list:
    """The (command, config document) pairs of one iteration of a workload.

    The last step of each workload emits the snapshots that ``w_err``
    compares against the reference.  ``tiny`` shrinks every size for the
    self-test; the pinned sizes match the ROADMAP baselines.
    """
    if name == "sweep":
        solver = ({"eps_list": [1e-2, 1e-3], "N": 128, "t_end": 0.002,
                   "output_times": [0.0, 0.001, 0.002]} if tiny else
                  {"eps_list": [1e-2, 1e-3, 1e-4], "N": 512, "t_end": 0.05,
                   "output_times": [0.0, 0.005, 0.01, 0.025, 0.05]})
        return [("simulate", {"system": SYSTEM, "solver": {"s_max": 4.0, **solver}})]
    if name == "blowup":
        solver = ({"epsilon": 1e-2, "N": 128, "t_end": 0.02,
                   "output_times": [0.0, 0.01, 0.02]} if tiny else
                  {"epsilon": 1e-4, "N": 512, "t_end": 0.1,
                   "output_times": [0.0, 0.01, 0.05, 0.075, 0.1]})
        return [("blowup", {"system": SYSTEM, "test_function": {"xi": 4.0, "delta": 0.8},
                            "solver": {"s_max": 4.0, **solver},
                            "blowup": {"t0": 0.0, "eta": 0.02 if tiny else 0.1,
                                       "betas": [1.0]}})]
    if name == "certify":
        n_cells, t_end, max_dt, n_out = (128, 0.05, 1e-4, 17) if tiny else (256, 0.05, 2e-5, 65)
        residual = {"system": SYSTEM,
                    "solver": {"epsilon": 1e-2, "s_max": 4.0, "N": n_cells, "t_end": t_end,
                               "max_dt": max_dt,
                               "output_times": [t_end * k / (n_out - 1) for k in range(n_out)]},
                    "weak_residual": {"refine": True}}
        lemmas = {"system": SYSTEM, "lemma_sweep": {"count": 5 if tiny else 1000, "seed": seed}}
        # the weak-residual command emits no snapshots, so the same solve is
        # emitted once more by simulate for w_err
        return [("verify-lemmas", lemmas), ("weak-residual", residual), ("simulate", residual)]
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def run_step(command: str, doc: dict, out_dir: Path) -> tuple:
    """Run one CLI command; returns (exit code, wall seconds)."""
    cfg = out_dir.with_suffix(".json")
    cfg.parent.mkdir(parents=True, exist_ok=True)
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    started = time.perf_counter()
    try:
        code = ksblow.cli.main([command, "--config", str(cfg), "--out", str(out_dir)])
    except Exception:  # a crash is a failed operation; the checks report its outputs
        traceback.print_exc()
        code = "an exception"
    return code, time.perf_counter() - started


# --- output checks ---------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out_dir: Path) -> list:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    emitted = {str(p.relative_to(out_dir)) for p in out_dir.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    declared = set(manifest["files"])
    problems = [f"manifest: {sorted(emitted ^ declared)} emitted or declared, not both"] \
        if emitted != declared else []
    problems += [f"manifest: hash of {rel} does not match"
                 for rel, digest in sorted(manifest["files"].items())
                 if rel in emitted and _sha256(out_dir / rel) != digest]
    return problems


def read_snapshots(out_dir: Path) -> dict:
    """relative path -> (s, W) for every emitted snapshot CSV."""
    out = {}
    for path in sorted(out_dir.rglob("snapshot_t*.csv")):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        out[str(path.relative_to(out_dir))] = (data[:, 0], data[:, 1])
    return out


def check_snapshots(snapshots: dict) -> list:
    """0 <= W <= cap and a non-decreasing profile, within the solver's slack."""
    problems = []
    for rel, (_, w) in snapshots.items():
        cap = w[-1]
        if not np.all(np.isfinite(w)):
            problems.append(f"{rel}: non-finite W")
        elif w.min() < -INVARIANT_SLACK * cap or w.max() > cap * (1 + INVARIANT_SLACK) \
                or np.diff(w).min() < -INVARIANT_SLACK * cap:
            problems.append(f"{rel}: W leaves [0, cap] or decreases")
    return problems


def check_sweep(out_dir: Path) -> list:
    report = json.loads((out_dir / "sweep_report.json").read_text(encoding="utf-8"))
    problems = [f"cutoff {f['epsilon']} failed: {f['message']}" for f in report["failures"]]
    if not report["max_violation"] <= SWEEP_VIOLATION_MAX:
        problems.append(f"sweep ordering violated by {report['max_violation']}")
    return problems


def check_blowup(doc: dict, out_dir: Path, tiny: bool) -> list:
    """The criterion-8 identities, recomputed from the config."""
    from ksblow import delta_quadratic

    report = json.loads((out_dir / "blowup_report.json").read_text(encoding="utf-8"))
    sel = report["selection"]
    sys_, tf = doc["system"], doc["test_function"]
    n, xi, delta = sys_["n"], tf["xi"], tf["delta"]
    eta = doc["blowup"]["eta"]
    c1 = (n * n * xi - 4.0 * (n * n - n)) * xi ** ((n - 2.0) / n)
    c2 = delta_quadratic(n, sys_["alpha"], sys_["f0"], delta) * xi ** (-2.0 / n)
    kappa = min(c1, c2) * eta / 8.0
    gamma_min = max(4.0 / (sys_["R"] - sys_["rho"]), (xi / kappa) ** (n / 2.0),
                    0.0 if tiny else BLOWUP_GAMMA_MIN)
    problems = []
    if abs(sel["kappa"] - kappa) > 1e-14 * kappa:
        problems.append(f"kappa = {sel['kappa']} is not k0*eta/8 = {kappa}")
    if not sel["gamma"] >= gamma_min * (1.0 - 1e-12):
        problems.append(f"gamma = {sel['gamma']} below {gamma_min}")
    for verdict in ("cap_ok", "lower_bound_ok"):
        if report["verdicts"].get(verdict) is not True:
            problems.append(f"blowup verdict {verdict} is not true")
    return problems


def check_lemmas(doc: dict, out_dir: Path) -> list:
    lines = (out_dir / "lemma_checks.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    count = doc["lemma_sweep"]["count"]
    problems = [f"lemma tuple {k} does not pass: margin {r['margin']}, "
                f"integral {r['integral']} vs {r['integral_bound']}"
                for k, r in enumerate(rows) if r["pass"] != "True"]
    if len(rows) != count:
        problems.append(f"{len(rows)} lemma tuples checked, {count} requested")
    return problems


def residual_order_min(out_dir: Path) -> float:
    orders = json.loads((out_dir / "residuals.json").read_text(encoding="utf-8"))["orders"]
    return min(orders[name] for name in ("interior", "initial", "origin_window"))


def operations(command: str, doc: dict) -> int:
    """Operations a command performs: one per cutoff, per lemma tuple, else one."""
    if command == "verify-lemmas":
        return doc["lemma_sweep"]["count"]
    return len(doc["solver"].get("eps_list") or [None])


def check_step(command: str, doc: dict, out_dir: Path, code: int, tiny: bool) -> tuple:
    """Check one command's outputs; returns (problems, snapshots, wr_order_min)."""
    problems = [f"{command} exited with {code}"] if code != 0 else []
    snapshots, order = {}, None
    try:
        problems += check_manifest(out_dir)
        if command in ("simulate", "blowup"):
            snapshots = read_snapshots(out_dir)
            problems += check_snapshots(snapshots)
        if command == "simulate" and doc["solver"].get("eps_list"):
            problems += check_sweep(out_dir)
        elif command == "blowup":
            problems += check_blowup(doc, out_dir, tiny)
        elif command == "verify-lemmas":
            problems += check_lemmas(doc, out_dir)
        elif command == "weak-residual":
            order = residual_order_min(out_dir)
            if not order >= 1.0:
                problems.append(f"weak-residual refinement order {order} < 1")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"{command}: missing or malformed output: {exc!r}")
    return problems, snapshots, order


def solver_steps(out_dir: Path) -> list:
    """Step counts from the run metadata in the manifest, if present."""
    try:
        runs = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["runs"]
        return [r["n_steps"] for r in runs if "n_steps" in r]
    except (OSError, ValueError, KeyError, TypeError):
        return []


# --- the reference for w_err -------------------------------------------------


def load_reference(path: Path = REFERENCE) -> dict:
    """workload -> (files, s, W rows), after checking the recorded hash."""
    meta = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    if _sha256(path) != meta["sha256"]:
        raise RuntimeError(f"{path} does not match the sha256 recorded beside it")
    with np.load(path, allow_pickle=False) as data:
        return {name: (list(data[f"{name}_files"]), data[f"{name}_s"], data[f"{name}_W"])
                for name in meta["workloads"]}


def w_error(snapshots: dict, reference: tuple) -> tuple:
    """max |W - W_ref| / cap over the reference snapshots; returns (w_err, problems)."""
    files, s_ref, rows = reference
    cap = float(rows[0][-1])
    worst, problems = 0.0, []
    for rel, w_ref in zip(files, rows):
        if rel not in snapshots:
            problems.append(f"snapshot {rel} missing")
            continue
        s, w = snapshots[rel]
        worst = max(worst, float(np.max(np.abs(w - np.interp(s, s_ref, w_ref)))) / cap)
    if not worst <= W_ERR_MAX:
        problems.append(f"w_err = {worst} exceeds {W_ERR_MAX}")
    return worst, problems


# --- one iteration ----------------------------------------------------------


def iteration(workload: str, seed: int, trace: bool, work: Path, index: int = 0,
              reference: Path = REFERENCE, tiny: bool = False) -> dict:
    """Run the workload's commands once (timed), then check their outputs."""
    steps = workload_steps(workload, seed, tiny)
    ref = load_reference(reference)[workload]
    run_dir = work / f"{workload}-{index}"
    tracer = Tracer(index) if trace else None
    undo = tracer.install() if tracer else (lambda: None)
    codes, wall = [], 0.0
    try:
        for k, (command, doc) in enumerate(steps):
            code, elapsed = run_step(command, doc, run_dir / f"{k}-{command}")
            codes.append(code)
            wall += elapsed
    finally:
        undo()
    problems, step_counts = [], []
    attempted = failed = 0
    w_err, order = 0.0, None
    for k, ((command, doc), code) in enumerate(zip(steps, codes)):
        out_dir = run_dir / f"{k}-{command}"
        found, snapshots, order_found = check_step(command, doc, out_dir, code, tiny)
        if k == len(steps) - 1:
            w_err, missing = w_error(snapshots, ref)
            found += missing
        if order_found is not None:
            order = order_found
        step_counts += solver_steps(out_dir)
        ops = operations(command, doc)
        attempted += ops
        failed += min(ops, len(found))
        problems += found
    shutil.rmtree(run_dir)
    if tracer:
        tracer.write(work / f"spans-{workload}-seed{seed}.jsonl")
    return {
        "wall_s": wall, "attempted": attempted, "failed": failed,
        "problems": problems[:20], "w_err": w_err, "wr_order_min": order,
        "solver_steps": step_counts, "layers": tracer.layer_metrics() if tracer else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "ksblow": ksblow.cli.__file__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    result = iteration(args.workload, args.seed, bool(args.trace), args.work, args.index)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
