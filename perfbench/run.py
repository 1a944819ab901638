"""redflow benchmark: one workload, one seed, measured for a fixed time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_all_files --seed 0 --seconds 52 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``cli_all_files``  ``redflow all`` via ``cli.main`` with the default config
* ``trend_memory``   one seed of the 15 x 60-trial attended trend scenario, in memory
* ``var_oracle``     VAR(1) models against their analytic TE, plus white-noise nulls

``var_oracle`` is not listed in ``BENCHMARK.json``: on a shared 2-vCPU host
the distance between the quartiles of ``wall_s`` over ten seeds was 0.28 of
the median, wider than the largest bound the benchmark may set. Run it by hand for
changes to the synth VAR path or the large-n covariance Gram.

Load shape: batch, closed loop, one caller. Every process this script starts
is fresh and has ``OPENBLAS_NUM_THREADS=1`` (and the OpenMP/MKL variables)
set before numpy is imported; a run in which the BLAS library reports
another thread count fails. The seed makes the inputs; redflow only receives
them. The program is imported from ``src/`` of this checkout.

With ``--trace 0`` the result has the end-to-end metrics: ``wall_s``
(median over runs), ``setup_s`` (median over five fresh processes),
``peak_rss_mb``. The failed share of runs is printed on the summary line and
carried by ``attempted``/``failed``. With ``--trace 1`` the result has the
per-layer metrics from wrapped public functions instead; spans are written
to ``.bench_run/spans-<workload>.tsv``.

The last line of standard output is the JSON result. The options after
``--trace`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cli_all_files", "trend_memory", "var_oracle")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh set-up-only processes per run, besides the measuring process.
SETUP_PROBES = 4
#: The whole run must end well within three minutes.
TIME_LIMIT_S = 170.0


def _worker_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _start(args, env, probe: bool, deadline: float):
    """Start a worker; return (process, seconds until it printed ready)."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--perturb-rate", repr(args.perturb_rate),
    ]
    if probe:
        cmd.append("--probe")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc)
        raise RuntimeError(f"worker exited during set-up (code {proc.returncode})")
    return proc, ready


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RuntimeError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    env = _worker_env(args.blas_threads)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready = _start(args, env, probe=True, deadline=deadline)
            _finish(proc, deadline)
            setups.append(ready)
    proc, ready = _start(args, env, probe=False, deadline=deadline)
    setups.append(ready)
    lines = _finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1])
    result["setups"] = setups
    return result


def _summary(args, res: dict) -> list:
    walls = res["walls"]
    lines = [
        f"workload {args.workload} seed {args.seed}: "
        f"wall_s median {statistics.median(walls):.4f} s over {len(walls)} runs "
        f"(min {min(walls):.4f}, max {max(walls):.4f}), "
        f"setup_s median {statistics.median(res['setups']):.4f} s over {len(res['setups'])} processes, "
        f"peak_rss_mb {res['peak_rss_mb']:.1f} MB, "
        f"failed_frac {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.3f} ratio",
        "digests " + json.dumps(res["digests"], sort_keys=True),
        "env " + json.dumps(res["env"], sort_keys=True),
    ]
    if res["per_layer"] is not None:
        lines.append(f"trace {res['trace_id']} spans in {res['spans_file']}")
        lines.append("binding sites " + json.dumps(res["binding_sites"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--blas-threads", type=int, default=1)
    parser.add_argument("--perturb-rate", type=float, default=0.0, metavar="BITS")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "redflow" / "__init__.py").is_file():
        print(f"redflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = run(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for line in res["problems"] + res["notes"]:
        print(line, file=sys.stderr)
    for line in _summary(args, res):
        print(line)
    if res["per_layer"] is None:
        values = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(res["setups"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    else:
        values = res["per_layer"]
        units = dict(tracer.PER_LAYER_METRICS)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
