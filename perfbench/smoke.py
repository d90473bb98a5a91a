#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the smallest size it runs: one cycle.

    python3 perfbench/smoke.py

Asserts that the generator gives identical inputs for an identical seed,
that a --trace 0 run of every workload and a --trace 1 run print every
metric BENCHMARK.json names, with its unit, in the contract's last-line
JSON, that the workload's named metrics are printed with unit and sample
count, and that without the program's sources the benchmark exits non-zero
and prints no result.  Exits 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMED = {
    "certify_families": ("families_per_s", "family_ms_p50", "family_ms_p90"),
    "oracle_words": ("words_per_s",),
    "geometry_constants": ("pairs_per_s", "profile_rows_per_s", "constants_per_s"),
    "cli_session": ("cli_ms_p50", "cli_ms_p90"),
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result(proc, expected):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, (got, expected)
    return proc.stdout.splitlines()


def main():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    for w in workloads.WORKLOADS.values():
        assert w.cycle(3, 0) == w.cycle(3, 0) and w.probes(3) == w.probes(3), w.name
        assert w.cycle(3, 1) == w.cycle(3, 1), w.name
    print("generator: identical inputs for identical seeds")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name, names in NAMED.items():
        lines = check_result(run(["perfbench/run.py", "--workload", name, "--seed", "3",
                                  "--seconds", "0.01", "--trace", "0"]), end_to_end)
        for metric in (*end_to_end, "failed_frac", *names):
            assert any(ln.startswith(f"metric {metric} = ") and "(n=" in ln for ln in lines), \
                (name, metric)
        print(f"{name}: end-to-end and named metrics printed")
    lines = check_result(run(["perfbench/run.py", "--workload", "certify_families",
                              "--seed", "3", "--trace", "1"]), per_layer)
    assert all(any(ln.startswith(f"layer {m} = ") for ln in lines) for m in per_layer)
    print("traced run: every per-layer metric printed")

    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([f"{HERE.name}/run.py", "--workload", "certify_families", "--seed", "3",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("without sources: exits non-zero with no result")
    print("smoke test passed")


if __name__ == "__main__":
    main()
