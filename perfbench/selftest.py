"""Self-test of the benchmark's own gates, to show they are not vacuous.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

It checks that:

* a tiny run of every workload prints each end-to-end metric named in
  ``BENCHMARK.json`` with its unit, and a traced tiny run prints each
  per-layer metric, with call counts that match the workload arithmetic;
* the seed-0 ``cli_all_files`` run matches its stored reference, and the
  same run with one rate moved by 1e-9 bits fails;
* a run whose BLAS library reports 2 threads fails;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


def result(proc) -> dict:
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def main() -> int:
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    tiny = ("--seed", "1", "--seconds", "1", "--scale", "tiny")

    for workload in WORKLOADS:
        proc = bench("--workload", workload, *tiny, "--trace", "0")
        res = result(proc)
        expect(res.get("correct") is True, f"{workload} tiny run is correct")
        expect(units(res.get("metrics", {})) == end_to_end,
               f"{workload} prints every end-to-end metric with its unit")
        expect("failed_frac" in proc.stdout, f"{workload} prints failed_frac")
        res = result(bench("--workload", workload, *tiny, "--trace", "1"))
        metrics = res.get("metrics", {})
        expect(res.get("correct") is True, f"{workload} traced tiny run is correct")
        expect(units(metrics) == per_layer, f"{workload} prints every per-layer metric with its unit")
        expect(metrics.get("bench.count_mismatches", {}).get("value") == 0,
               f"{workload} traced call counts match the workload arithmetic")

    seed0 = ("--workload", "cli_all_files", "--seed", "0", "--seconds", "1", "--trace", "0")
    res = result(bench(*seed0))
    expect(res.get("correct") is True, "cli_all_files seed 0 matches the stored reference")
    res = result(bench(*seed0, "--perturb-rate", "1e-9"))
    expect(res.get("correct") is False and res.get("failed") == res.get("attempted"),
           "a rate perturbed by 1e-9 bits fails the run")

    res = result(bench("--workload", "cli_all_files", *tiny, "--trace", "0", "--blas-threads", "2"))
    expect(res.get("correct") is False and res.get("failed") == res.get("attempted"),
           "a BLAS thread count of 2 fails the run")

    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program's sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all gates behave")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
