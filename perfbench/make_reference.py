"""Regenerate the reference snapshots that the benchmark's ``w_err`` compares against.

    python3 perfbench/make_reference.py

For each workload it runs the step that emits snapshots (``simulate`` for
``sweep`` and ``certify``, ``blowup`` for ``blowup``) once, with the same
config except ``solver.cfl_safety`` at a quarter of its default, and writes
``perfbench/reference/w_ref.npz`` with ``w_ref.json`` beside it (provenance
and the sha256 that ``workloads.load_reference`` checks).  Run it only on the
solver whose accuracy later versions are measured against; it takes a few
minutes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def build(path: Path, work: Path, tiny: bool = False) -> dict:
    """Run the reference solves and write ``path`` and its ``.json`` sibling."""
    arrays, files = {}, {}
    for name in workloads.WORKLOADS:
        command, doc = workloads.workload_steps(name, seed=0, tiny=tiny)[-1]
        doc["solver"]["cfl_safety"] = workloads.REFERENCE_CFL
        out_dir = work / "reference" / name
        code, seconds = workloads.run_step(command, doc, out_dir)
        if code != 0:
            raise RuntimeError(f"reference {name}: {command} exited with {code}")
        snapshots = workloads.read_snapshots(out_dir)
        names = sorted(snapshots)
        nodes = snapshots[names[0]][0]
        if any(not np.array_equal(snapshots[rel][0], nodes) for rel in names):
            raise RuntimeError(f"reference {name}: snapshots on different meshes")
        arrays[f"{name}_files"] = np.array(names)
        arrays[f"{name}_s"] = nodes
        arrays[f"{name}_W"] = np.stack([snapshots[rel][1] for rel in names])
        files[name] = {"command": command, "config": doc, "snapshots": len(names),
                       "solver_steps": workloads.solver_steps(out_dir),
                       "seconds": round(seconds, 1)}
    shutil.rmtree(work / "reference")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)
    meta = {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "workloads": list(workloads.WORKLOADS),
        "made_by": "python3 perfbench/make_reference.py",
        "how": "each workload's snapshot step, solver.cfl_safety = "
               f"{workloads.REFERENCE_CFL} (a quarter of the default 0.4)",
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "runs": files,
    }
    path.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    return meta


if __name__ == "__main__":
    work = ROOT / ".perfbench_out"
    meta = build(workloads.REFERENCE, work)
    print(json.dumps({k: meta[k] for k in ("sha256", "how")}))
