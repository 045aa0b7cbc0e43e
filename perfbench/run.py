"""Run one workload of the ksblow benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Workloads are ``sweep``, ``blowup`` and ``certify`` (see README.md).  The
program is built from the checkout this file sits in (``src/ksblow``).
Set-up time is measured first, as several fresh-interpreter imports of
``ksblow.cli``.  The workload then runs for ``--seconds``, each iteration in
a fresh interpreter of its own (``workloads.py``) with BLAS limited to one
thread.  With ``--trace 1`` the workload runs untraced and traced, for half
of ``--seconds`` each, and the per-layer metrics are reported instead of the
end-to-end ones.

The next-to-last line of standard output is a JSON record of the run
(machine facts, every sample, the output problems found); the last line is
``{"correct", "attempted", "failed", "metrics"}``, with the metric names and
units of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the ROADMAP baseline (2 CPUs), printed next to each result
BASELINE = {"sweep": {"wall_s": 22.0, "solver_steps": [75670] * 3},
            "blowup": {"wall_s": 13.9, "solver_steps": [122997]},
            "certify": {"wall_s": 6.8}}


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in BLAS_THREADS})
    return env


def time_setup(env: dict, timeout: float) -> float:
    """Wall time of a fresh interpreter that imports ksblow.cli."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ksblow.cli"], env=env, cwd=ROOT,
                   check=True, timeout=timeout)
    return time.perf_counter() - started


def run_iterations(args, env: dict, trace: bool, seconds: float, work: Path,
                   deadline: float) -> list:
    """Run iterations while one more still fits in ``seconds`` (at least one)."""
    results = []
    started = time.perf_counter()
    while True:
        iteration_start = time.perf_counter()
        result = work / f"result-{args.workload}.json"
        result.unlink(missing_ok=True)
        subprocess.run([sys.executable, str(HERE / "workloads.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--trace", str(int(trace)), "--index", str(len(results)),
                        "--work", str(work), "--result", str(result)],
                       env=env, cwd=ROOT, check=True, timeout=deadline - time.perf_counter())
        results.append(json.loads(result.read_text(encoding="utf-8")))
        now = time.perf_counter()
        if now - started + (now - iteration_start) > seconds:
            return results


def tail_percentile(samples: list):
    """The highest percentile with at least ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 10
    return {"percentile": 100.0 * k / len(ordered), "value": ordered[k - 1]}


def assemble(spec: dict, workload: str, seed: int, setup: list, plain: list,
             traced: list | None = None) -> tuple:
    """(record, result) from the iteration results: the run record and the
    final result object."""
    walls = [it["wall_s"] for it in plain]
    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
              "peak_rss_mb": max(it["peak_rss_mb"] for it in plain),
              "w_err": max(it["w_err"] for it in plain)}
    metric_specs = spec["end_to_end"]
    iterations = list(plain)
    if traced is not None:
        values = median_metrics([it["layers"] for it in traced])
        values["trace.overhead_frac"] = (statistics.median(it["wall_s"] for it in traced)
                                         / statistics.median(walls) - 1.0)
        metric_specs = spec["per_layer"]
        iterations += traced
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs if m["name"] in values}
    failed = sum(it["failed"] for it in iterations)
    result = {"correct": failed == 0,
              "attempted": sum(it["attempted"] for it in iterations), "failed": failed,
              "metrics": metrics}
    orders = [it["wr_order_min"] for it in plain if it["wr_order_min"] is not None]
    record = {
        "workload": workload, "seed": seed,
        "machine": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                    "platform": platform.platform(), **plain[0]["versions"],
                    "blas_threads": plain[0]["blas_threads"]},
        "ksblow": plain[0]["ksblow"],
        "wall_s": {"median": statistics.median(walls),
                   "samples": walls, "n": len(walls), "tail": tail_percentile(walls)},
        "setup_s_samples": setup,
        "solver_steps": plain[0]["solver_steps"],
        "wr_order_min": min(orders, default=None),
        "problems": [p for it in iterations for p in it["problems"]][:20],
        "roadmap_baseline": BASELINE[workload],
    }
    if traced is not None:
        record["traced_wall_s"] = [it["wall_s"] for it in traced]
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(BASELINE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "ksblow" / "cli.py").is_file():
        print(f"perfbench: no ksblow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_out"
    work.mkdir(exist_ok=True)
    env = worker_env()

    deadline = started + DEADLINE_S
    (work / f"spans-{args.workload}-seed{args.seed}.jsonl").unlink(missing_ok=True)
    try:
        setup = [time_setup(env, deadline - time.perf_counter())
                 for _ in range(SETUP_SAMPLES)]
        if args.trace:
            plain = run_iterations(args, env, False, args.seconds / 2, work, deadline)
            traced = run_iterations(args, env, True, args.seconds / 2, work, deadline)
        else:
            plain = run_iterations(args, env, False, args.seconds, work, deadline)
            traced = None
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record, result = assemble(spec, args.workload, args.seed, setup, plain, traced)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
