"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py prints; that
another seed changes the twostage-sweep inputs; and that two traced runs
with one seed give identical counts and identical result CSV bytes on each
uncapped workload.  Takes about two minutes; exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNCAPPED = ("twostage-sweep", "goofspiel-pipeline")


def fail(message: str) -> None:
    sys.exit(f"selftest FAILED: {message}")


def check_metric_names() -> None:
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        fail("BENCHMARK.json names a workload workloads.py lacks")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != table:
            fail(f"BENCHMARK.json {key} differs from run.py")


def check_seed_changes_inputs() -> None:
    from workloads import WORKLOADS, inputs_digest
    sweep = WORKLOADS["twostage-sweep"]
    first = inputs_digest(sweep.config(1))
    if inputs_digest(sweep.config(1)) != first:
        fail("one seed gave two different twostage-sweep inputs")
    if inputs_digest(sweep.config(2)) == first:
        fail("seeds 1 and 2 gave the same twostage-sweep inputs")


def traced_run(workload: str, out: Path) -> tuple[bytes, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        fail(f"{workload} run exited with {proc.returncode}")
    stem = out / f"{workload}-seed3-trace1"
    return (Path(f"{stem}.csv").read_bytes(),
            Path(f"{stem}.counts.json").read_text(encoding="utf-8"))


def check_reruns_identical() -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in UNCAPPED:
            first = traced_run(workload, Path(tmp) / "a")
            second = traced_run(workload, Path(tmp) / "b")
            if first[0] != second[0]:
                fail(f"{workload}: result CSVs differ between reruns")
            if first[1] != second[1]:
                fail(f"{workload}: counts differ between reruns")
            print(f"{workload}: reruns agree on CSV and counts")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    check_metric_names()
    print("BENCHMARK.json matches run.py")
    check_seed_changes_inputs()
    print("seed changes the twostage-sweep inputs")
    check_reruns_identical()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
