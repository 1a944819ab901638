"""One benchmark process: set up a workload, say ``ready``, run it for the
requested seconds, check every output, and print one JSON result line.

``run.py`` starts it with the BLAS thread variables already set. Protocol
on standard output: the line ``ready`` once set-up is done, then (unless
``--probe``) one JSON object. Everything else goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


#: Fewest workload runs per process, whatever ``--seconds`` says.
MIN_RUNS = 2


def measure(args, workload, env, tracer_mod, envinfo) -> dict:
    """Run the workload for about ``args.seconds``: after ``MIN_RUNS`` runs,
    stop before a run that would likely end past the deadline. In trace mode,
    alternate untraced and traced runs."""
    blas_problem = envinfo.blas_thread_problem(env)
    tracer = tracer_mod.Tracer() if args.trace else None
    untraced_walls, traced_walls = [], []
    attempted = failed = 0
    problems, digests = [], None
    walls = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(untraced_walls) > len(traced_walls)
        attempted += 1
        run_problems = []
        gc.collect()
        output = None
        start = time.perf_counter()
        try:
            with tracer if traced else contextlib.nullcontext():
                output = workload.run()
        except Exception as exc:
            traceback.print_exc()
            run_problems.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        if output is not None:
            try:
                found, run_digests = workload.check(output, args.perturb_rate)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found, run_digests = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
            run_problems += found
            if digests is None:
                digests = run_digests
            elif run_digests and run_digests != digests:
                run_problems.append("outputs differ from the first run in this process")
        del output
        if blas_problem:
            run_problems.append(blas_problem)
        walls.append(wall)
        (traced_walls if traced else untraced_walls).append(wall)
        if run_problems:
            failed += 1
            problems.extend(f"run {attempted}: {p}" for p in run_problems[:5])
        if attempted >= MIN_RUNS and time.perf_counter() + statistics.median(walls) > deadline:
            break

    result = {
        "walls": untraced_walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "per_layer": None,
        "notes": [],
    }
    if tracer is not None:
        values, trace_problems, notes = tracer_mod.per_layer_metrics(
            tracer, workload.n_trials, workload.expected_calls(), traced_walls, untraced_walls
        )
        if trace_problems:
            result["failed"] = attempted
            result["problems"] += trace_problems[:20]
        result["per_layer"] = values
        result["notes"] = notes
        result["trace_id"] = tracer.trace_id
        result["binding_sites"] = tracer.sites
        spans_path = ROOT / ".bench_run" / f"spans-{args.workload}.tsv"
        tracer.write_spans(spans_path, f"workload={args.workload} seed={args.seed}")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--perturb-rate", type=float, default=0.0)
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    args = parser.parse_args(argv)

    protocol, sys.stdout = sys.stdout, sys.stderr
    sys.path.insert(0, str(ROOT / "src"))
    import redflow

    if Path(redflow.__file__).resolve().parent != (ROOT / "src" / "redflow").resolve():
        print(f"redflow imported from {redflow.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import envinfo
    import tracer as tracer_mod
    import workloads

    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, run_dir)
        print("ready", file=protocol, flush=True)
        if args.probe:
            return 0
        env = envinfo.collect(ROOT)
        result = measure(args, workload, env, tracer_mod, envinfo)
        result["env"] = env
        print(json.dumps(result), file=protocol, flush=True)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
