"""Span tracer that wraps redflow's public functions from outside the package.

A traced function is replaced at every binding site: the defining module and
every other redflow module (or the package namespace) that imported the same
function object by name. So ``cli.directed_redundancy_bound`` and
``redundancy.transfer_entropy`` are wrapped along with
``redundancy.directed_redundancy_bound`` and ``infotheory.transfer_entropy``.

Spans are kept in memory as ``(id, parent id, name, start, end, failed)``.
Self time is computed from the span tree: a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
import uuid

#: Public functions traced per layer (a layer is a redflow module).
LAYERS = {
    "cli": (
        "cmd_simulate", "cmd_train", "cmd_rates", "cmd_report",
        "load_trials", "train_decoders", "compute_rates", "build_report",
    ),
    "signals": ("write_recording", "read_recording"),
    "synth": ("make_aad_scenario", "simulate", "analytic_te", "stationary_covariance"),
    "decoder": ("build_design", "cross_validate_stats", "train_pooled_stats", "reconstruct"),
    "infotheory": ("transfer_entropy", "te_blocks", "estimate_covariance", "gaussian_cmi"),
    "redundancy": ("directed_redundancy_bound",),
    "analysis": ("kde_pdf", "bin_rd", "fit_linear"),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

#: Per-function statistics, each reported as ``<layer>.<function>.<stat>``.
FUNCTION_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("failed", "count"))

#: Counters measured where the work happens, plus ratios derived from them.
EXTRA_METRICS = (
    ("signals.csv_bytes_written", "B"),
    ("signals.csv_bytes_read", "B"),
    ("signals.reads_per_write", "ratio"),
    ("decoder.designs_per_trial", "ratio"),
    ("decoder.solver_jitter_nonzero", "count"),
    ("infotheory.transfer_entropy.mean_ms", "ms"),
    ("infotheory.gram_flops", "flop"),
    ("infotheory.estimate_covariance.jittered", "count"),
    ("infotheory.te_per_bundle", "ratio"),
    ("bench.tracing_overhead_s", "s"),
    ("bench.count_mismatches", "count"),
)

PER_LAYER_METRICS = tuple(
    (f"{name}.{stat}", unit) for name in TRACED for stat, unit in FUNCTION_STATS
) + EXTRA_METRICS


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_written(counters, args, kwargs, result):
    path = _arg(args, kwargs, 1, "csv_path")
    counters["signals.csv_bytes_written"] += os.path.getsize(path)


def _count_read(counters, args, kwargs, result):
    path = _arg(args, kwargs, 0, "csv_path")
    counters["signals.csv_bytes_read"] += os.path.getsize(path)


def _count_covariance(counters, args, kwargs, result):
    rows, dim = _arg(args, kwargs, 0, "data").shape
    counters["infotheory.gram_flops"] += rows * dim * dim
    if getattr(result, "jitter_applied", 0.0) > 0.0:
        counters["infotheory.estimate_covariance.jittered"] += 1


def _count_solver_jitter(counters, args, kwargs, result):
    if getattr(result, "solver_jitter", 0.0) > 0.0:
        counters["decoder.solver_jitter_nonzero"] += 1


#: Called after a traced function returns normally, to update counters.
_HOOKS = {
    "signals.write_recording": _count_written,
    "signals.read_recording": _count_read,
    "infotheory.estimate_covariance": _count_covariance,
    "decoder.train_pooled_stats": _count_solver_jitter,
}

_COUNTERS = (
    "signals.csv_bytes_written",
    "signals.csv_bytes_read",
    "infotheory.gram_flops",
    "infotheory.estimate_covariance.jittered",
    "decoder.solver_jitter_nonzero",
)


class Tracer:
    """Records spans for the traced functions while installed.

    Use ``with tracer:`` around one workload run; each run's spans and
    counters are kept as one entry of ``runs``.
    """

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.runs = []
        self.sites = {}
        self.missing = []
        self._patched = []
        self._stack = [0]
        self._next_id = 1

    def __enter__(self):
        self._spans = []
        self._counters = dict.fromkeys(_COUNTERS, 0)
        self._install()
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []
        self.runs.append((self._spans, self._counters))
        return False

    def _install(self):
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "redflow" or key.startswith("redflow."))
        ]
        self.missing = []
        for qualname in TRACED:
            layer, attr = qualname.split(".")
            original = getattr(sys.modules.get(f"redflow.{layer}"), attr, None)
            if not callable(original):
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(qualname, original)
            sites = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
                        sites.append(f"{module.__name__}.{key}")
            self.sites[qualname] = sites

    def _wrap(self, qualname, fn):
        hook = _HOOKS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._spans.append((span_id, parent, qualname, start, end, failed))
            if hook is not None:
                hook(self._counters, args, kwargs, result)
            return result

        return traced

    def write_spans(self, path, header: dict) -> None:
        """Write every span of every traced run as tab-separated lines."""
        with open(path, "w") as fh:
            fh.write(f"# trace_id={self.trace_id} {header}\n")
            fh.write("run\tid\tparent\tname\tstart\tend\tfailed\n")
            for run, (spans, _) in enumerate(self.runs):
                for span_id, parent, name, start, end, failed in spans:
                    fh.write(f"{run}\t{span_id}\t{parent}\t{name}\t{start!r}\t{end!r}\t{int(failed)}\n")


def summarize_run(spans) -> dict:
    """Per-function calls, inclusive busy time, self time and failures."""
    child_time = {}
    for _, parent, _, start, end, _ in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0} for name in TRACED}
    for span_id, _, name, start, end, failed in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        entry["failed"] += int(failed)
    return out


def per_layer_metrics(tracer: Tracer, n_trials: int, expected_calls: dict,
                      traced_walls, untraced_walls) -> tuple[dict, list, list]:
    """Per-layer metric values, the problems found, and notes.

    Counts must repeat exactly across the traced runs; that is a problem when
    they do not. Call counts that differ from the workload's arithmetic are
    counted in ``bench.count_mismatches`` and listed as notes.
    """
    problems, notes = [], []
    summaries = [summarize_run(spans) for spans, _ in tracer.runs]
    counters = [c for _, c in tracer.runs]
    first = summaries[0]
    for i, (summary, counter) in enumerate(zip(summaries[1:], counters[1:]), start=1):
        for name in TRACED:
            for stat in ("calls", "failed"):
                if summary[name][stat] != first[name][stat]:
                    problems.append(
                        f"{name}.{stat} differs between traced runs: "
                        f"{first[name][stat]} then {summary[name][stat]} (run {i})"
                    )
        if counter != counters[0]:
            problems.append(f"counters differ between traced runs: {counters[0]} then {counter}")

    values = {}
    for name in TRACED:
        values[f"{name}.calls"] = first[name]["calls"]
        values[f"{name}.failed"] = first[name]["failed"]
        for stat in ("busy_s", "self_s"):
            values[f"{name}.{stat}"] = statistics.median(s[name][stat] for s in summaries)
    values.update(counters[0])

    def ratio(num, den):
        return num / den if den else 0.0

    writes = values["signals.write_recording.calls"]
    te_calls = values["infotheory.transfer_entropy.calls"]
    values["signals.reads_per_write"] = ratio(values["signals.read_recording.calls"], writes)
    values["decoder.designs_per_trial"] = ratio(values["decoder.build_design.calls"], n_trials)
    values["infotheory.transfer_entropy.mean_ms"] = 1000.0 * ratio(
        values["infotheory.transfer_entropy.busy_s"], te_calls
    )
    values["infotheory.te_per_bundle"] = ratio(
        te_calls, values["redundancy.directed_redundancy_bound.calls"]
    )
    values["bench.tracing_overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls)
    )
    for name, expected in expected_calls.items():
        got = values[f"{name}.calls"]
        if got != expected:
            notes.append(f"{name}.calls = {got}, workload arithmetic gives {expected}")
    values["bench.count_mismatches"] = len(notes)
    notes.extend(f"{name} not found in redflow; reported as 0 calls" for name in tracer.missing)
    return values, problems, notes
