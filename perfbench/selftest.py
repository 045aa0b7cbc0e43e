"""Fast self-test of the benchmark, on tiny sizes (a few seconds).

    python3 perfbench/selftest.py

It builds a tiny reference, runs every workload untraced and traced through
the same code as the real benchmark, and checks that every metric named in
BENCHMARK.json is emitted with its unit and that the untouched outputs pass.
It then corrupts outputs one at a time and checks that the output checks
report each corruption.  Exits 0 when everything holds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import make_reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
failures = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def check_metrics(spec: dict, work: Path, reference: Path) -> None:
    for workload in workloads.WORKLOADS:
        plain = workloads.iteration(workload, SEED, False, work, 0, reference, tiny=True)
        traced = workloads.iteration(workload, SEED, True, work, 0, reference, tiny=True)
        for kind, extra in (("end_to_end", None), ("per_layer", [traced])):
            _, result = run.assemble(spec, workload, SEED, [1.0], [plain], extra)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload}/{kind}: untouched outputs fail: {plain['problems']}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}/{kind}: result keys {sorted(result)}")
            for metric in spec[kind]:
                got = result["metrics"].get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{workload}/{kind}: metric {metric['name']} missing or malformed: {got}")


def _edit_json(mutate):
    def edit(text):
        doc = json.loads(text)
        mutate(doc)
        return json.dumps(doc)
    return edit


def _fail_last_row(text):
    lines = text.splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",False"
    return "\n".join(lines) + "\n"


def _negative_w(text):
    lines = text.splitlines()
    s, _ = lines[2].split(",")
    lines[2] = f"{s},-0.5"
    return "\n".join(lines) + "\n"


# (workload, step index, file, edit, whether the manifest hash is updated to match)
CORRUPTIONS = [
    ("sweep", 0, "eps_0.01/indicator_beta1.csv", lambda t: t + "0.5,1.0\n", False),
    ("sweep", 0, "eps_0.01/snapshot_t0.001.csv", _negative_w, True),
    ("sweep", 0, "sweep_report.json",
     _edit_json(lambda d: d.update(max_violation=1e-3)), True),
    ("sweep", 0, "sweep_report.json",
     _edit_json(lambda d: d.update(failures=[{"epsilon": 1e-3, "message": "x"}])), True),
    ("blowup", 0, "blowup_report.json",
     _edit_json(lambda d: d["selection"].update(kappa=d["selection"]["kappa"] * 1.01)), True),
    ("blowup", 0, "blowup_report.json",
     _edit_json(lambda d: d["selection"].update(gamma=1.0)), True),
    ("blowup", 0, "blowup_report.json",
     _edit_json(lambda d: d["verdicts"].update(cap_ok=False)), True),
    ("certify", 0, "lemma_checks.csv", _fail_last_row, True),
    ("certify", 1, "residuals.json",
     _edit_json(lambda d: d["orders"].update(interior=0.5)), True),
    ("certify", 2, "snapshot_t0.025.csv", _negative_w, True),
]


def check_corruptions(work: Path, reference: Path) -> None:
    refs = workloads.load_reference(reference)
    for workload, index, rel, edit, rehash in CORRUPTIONS:
        command, doc = workloads.workload_steps(workload, SEED, tiny=True)[index]
        out_dir = work / "corrupt" / command
        code, _ = workloads.run_step(command, doc, out_dir)
        clean, _, _ = workloads.check_step(command, doc, out_dir, code, tiny=True)
        expect(not clean, f"{workload}/{command}: untouched outputs fail: {clean}")
        path = out_dir / rel
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        if rehash:
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            manifest["files"][rel] = hashlib.sha256(path.read_bytes()).hexdigest()
            (out_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        found, snapshots, _ = workloads.check_step(command, doc, out_dir, code, tiny=True)
        if snapshots and index == len(workloads.workload_steps(workload, SEED, True)) - 1:
            found += workloads.w_error(snapshots, refs[workload])[1]
        expect(bool(found), f"{workload}: corrupting {rel} (rehash={rehash}) went unnoticed")
        shutil.rmtree(work / "corrupt")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = work / "w_ref.npz"
        make_reference.build(reference, work, tiny=True)
        check_metrics(spec, work, reference)
        check_corruptions(work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in failures:
        print(f"FAIL: {message}")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
