"""The benchmark workloads: inputs made from a seed, one timed run through
redflow's public functions, and the checks that decide whether a run's
outputs are correct.

Each workload object is built once per process (that is set-up), then
``run()`` is timed repeatedly and every output goes through ``check()``.
Traced functions are looked up as module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from redflow import cli, infotheory, synth
from redflow.infotheory import EmbedSpec, plug_in_bias
from redflow.signals import TimeSeries

RATE_KEYS = ("r_s_to_shat", "r_e_to_shat", "r_s_to_e")
RATE_KINDS = ("S_to_Shat", "E_to_Shat", "S_to_E", "Rmin")
BOTH = ("attended", "distractor")

#: Largest difference from the stored seed-0 reference, in bits.
REFERENCE_TOL_BITS = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int, scale: str):
    """Stored rates for (workload, seed) at full scale, or None."""
    path = reference_path(workload, seed)
    if scale != "full" or not path.exists():
        return None
    return json.loads(path.read_text())


def reference_rows(records) -> list:
    """The fields compared against the reference, one row per record."""
    return [
        [r["subject_id"], r["trial_id"], r["condition"], *(r[k] for k in RATE_KEYS),
         r["argmin_channel_e_to_shat"], r["argmin_channel_s_to_e"]]
        for r in records
    ]


def check_records(records, config, conditions, reference) -> list:
    """Rate invariants for every record, and agreement with the reference."""
    problems = []
    expected = {
        (f"s{s + 1:02d}", f"t{t + 1:03d}", c)
        for s in range(config.n_subjects) for t in range(config.n_trials) for c in conditions
    }
    got = [(r["subject_id"], r["trial_id"], r["condition"]) for r in records]
    if sorted(got) != sorted(expected):
        problems.append(f"{len(got)} rate records, expected {len(expected)} distinct ones")
    for r in records:
        where = f"{r['subject_id']}/{r['trial_id']}/{r['condition']}"
        rates = [r[k] for k in RATE_KEYS]
        if not all(math.isfinite(v) and v >= 0.0 for v in rates + [r["r_min"]]):
            problems.append(f"{where}: rates must be finite and >= 0, got {rates}, r_min {r['r_min']}")
        elif r["r_min"] != min(rates):
            problems.append(f"{where}: r_min {r['r_min']!r} != min(components) {min(rates)!r}")
    if reference is not None:
        rows = reference_rows(records)
        if len(rows) != len(reference["rows"]):
            problems.append(f"{len(rows)} records, reference has {len(reference['rows'])}")
        for row, ref in zip(rows, reference["rows"]):
            keys_ok = row[:3] == ref[:3] and row[6:] == ref[6:]
            worst = max(abs(a - b) for a, b in zip(row[3:6], ref[3:6]))
            if not keys_ok or not worst <= REFERENCE_TOL_BITS:
                problems.append(
                    f"{'/'.join(row[:3])}: differs from reference by {worst:.3g} bits "
                    f"(tolerance {REFERENCE_TOL_BITS}) or in its labels"
                )
    return problems


def check_fits(fits, conditions) -> list:
    problems = []
    for kind in RATE_KINDS:
        for condition in conditions:
            cell = fits.get(kind, {}).get(condition)
            if cell is None:
                problems.append(f"fits cell {kind}/{condition} missing")
            elif "error" in cell:
                problems.append(f"fits cell {kind}/{condition}: {cell['error']}")
    return problems


def _perturb(records, bits: float) -> None:
    if bits and records:
        records[0]["r_s_to_shat"] += bits


class CliAllFiles:
    """``redflow all`` through ``cli.main`` with the default config, into
    fresh directories: the only workload that uses the file layer."""

    name = "cli_all_files"
    SCALES = {"full": {}, "tiny": {"scenario": {"n_subjects": 1, "n_trials": 6, "n_samples": 700}}}

    def __init__(self, seed: int, scale: str, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps({"config_version": 1, **self.SCALES[scale]}))
        self.config = cli.load_config(self.config_path, seed_override=seed)
        self.reference = load_reference(self.name, seed, scale)
        self.n_trials = self.config.n_subjects * self.config.n_trials
        self._runs = 0

    def expected_calls(self) -> dict:
        trials, per_trial_tes = self.n_trials, 1 + 2 * len(self.config.channel_subset)
        return {
            "infotheory.transfer_entropy": trials * len(BOTH) * per_trial_tes,
            "redundancy.directed_redundancy_bound": trials * len(BOTH),
            "signals.write_recording": trials * 3,
            "signals.read_recording": 2 * trials * 3,
            "decoder.build_design": trials * (1 + len(BOTH)),
            "cli.load_trials": 2,
        }

    def run(self):
        self._runs += 1
        base = self.run_dir / f"run{self._runs}"
        argv = [
            "all", "--config", str(self.config_path), "--seed", str(self.seed),
            "--data", str(base / "data"), "--out", str(base / "out"),
        ]
        return cli.main(argv), base

    def check(self, output, perturb_bits: float = 0.0) -> tuple[list, dict]:
        code, base = output
        try:
            if code != 0:
                return [f"cli.main exit code {code}"], {}
            out = base / "out"
            rates_lines, records = [], []
            for line in (out / "rates.ndjson").read_text().splitlines():
                if line.startswith("# meta "):
                    meta = json.loads(line[len("# meta "):])
                    meta.pop("generated_at", None)
                    line = "# meta " + json.dumps(meta, sort_keys=True)
                else:
                    records.append(json.loads(line))
                rates_lines.append(line)
            fits_doc = json.loads((out / "fits.json").read_text())
            fits_doc["meta"].pop("generated_at", None)
            _perturb(records, perturb_bits)
            problems = check_records(records, self.config, BOTH, self.reference)
            problems += check_fits(fits_doc["fits"], BOTH)
            for name in ("pdf.csv", "rd_curve.csv", "rd_points.ndjson"):
                if not (out / name).is_file():
                    problems.append(f"output {name} missing")
            digests = {
                "rates.ndjson": _sha256("\n".join(rates_lines)),
                "fits.json": _sha256(json.dumps(fits_doc, sort_keys=True)),
            }
            return problems, digests
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def records(self, output) -> list:
        _, base = output
        lines = (base / "out" / "rates.ndjson").read_text().splitlines()
        return [json.loads(line) for line in lines if not line.startswith("#")]


class TrendMemory:
    """One seed of the attended trend scenario (the ``test_08`` config), in
    memory: many small transfer entropies and a 900-trial decoder CV.

    Runs the body of ``cli.analyze_scenario`` stage by stage so the rate
    records can be checked, not only the fits.
    """

    name = "trend_memory"
    CONDITIONS = ("attended",)
    DOC = {
        "config_version": 1,
        "rate_hz": 64.0,
        "lag_window_ms": [0.0, 125.0],
        "lambda_grid": [10.0**k for k in range(-2, 5)],
        "embed": {"source_history": 8, "target_history": 8},
        "scenario": {
            "n_subjects": 15, "n_trials": 60, "n_samples": 3200,
            "attended_coupling": 0.12, "distractor_coupling": 0.03,
        },
    }
    SCALES = {"full": {}, "tiny": {"n_subjects": 2, "n_trials": 6, "n_samples": 700}}

    def __init__(self, seed: int, scale: str, run_dir: Path):
        doc = copy.deepcopy(self.DOC)
        doc["scenario"].update(self.SCALES[scale])
        doc["seed"] = seed
        self.config = cli.config_from_dict(doc)
        self.reference = load_reference(self.name, seed, scale)
        self.n_trials = self.config.n_subjects * self.config.n_trials

    def expected_calls(self) -> dict:
        trials, per_trial_tes = self.n_trials, 1 + 2 * len(self.config.channel_subset)
        return {
            "infotheory.transfer_entropy": trials * per_trial_tes,
            "redundancy.directed_redundancy_bound": trials,
            "decoder.build_design": 2 * trials,
            "synth.make_aad_scenario": 1,
            "signals.write_recording": 0,
            "signals.read_recording": 0,
        }

    def run(self):
        config, conditions = self.config, self.CONDITIONS
        trials = synth.make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
        decoders = cli.train_decoders(config, trials, conditions)
        records, points = cli.compute_rates(config, trials, decoders, conditions)
        _, _, fits = cli.build_report(config, points, conditions)
        return records, fits

    def check(self, output, perturb_bits: float = 0.0) -> tuple[list, dict]:
        records, fits = output
        digests = {
            "rates": _sha256(json.dumps(records, sort_keys=True)),
            "fits": _sha256(json.dumps(fits, sort_keys=True)),
        }
        records = [dict(r) for r in records]
        _perturb(records, perturb_bits)
        problems = check_records(records, self.config, self.CONDITIONS, self.reference)
        problems += check_fits(fits, self.CONDITIONS)
        return problems, digests

    def records(self, output) -> list:
        return output[0]


def random_stable_model(rng, dim, max_radius=0.95):
    """The ``test_01`` recipe: random transition scaled to a spectral radius
    in [0.3, max_radius), random unit-trace noise covariance."""
    a = rng.standard_normal((dim, dim))
    a *= rng.uniform(0.3, max_radius) / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((dim, dim))
    q = b @ b.T + 0.5 * np.eye(dim)
    q /= np.trace(q) / dim
    return synth.VarModel(transition=a, noise_cov=q)


class VarOracle:
    """Random stable 3-dim VAR(1) models against their analytic TE oracle,
    then independent white-noise pairs at the default 16/16 embedding: a few
    large-n transfer entropies and the synth VAR path.

    An estimate must lie within max(0.005, 3 * plug-in bias, 5 * sd) bits of
    its oracle. The first two terms are the ``test_01`` tolerance; alone they
    fail about 2% of models (20% of seeds) on sampling error when the TE is
    large. ``sd`` is the delta-method standard deviation of the plug-in
    estimate, sqrt(1 - 2**(-2 * TE)) / (ln 2 * sqrt(n)).
    """

    name = "var_oracle"
    ORACLE_EMBED = EmbedSpec(source_history=4, target_history=4, delay=1)
    NULL_EMBED = EmbedSpec()
    NULL_MAX_BITS = 0.003
    NULL_PASS_SHARE = 0.95
    SD_FACTOR = 5.0
    SCALES = {"full": (10, 20, 100_000), "tiny": (2, 2, 100_000)}

    def __init__(self, seed: int, scale: str, run_dir: Path):
        n_models, n_nulls, self.n = self.SCALES[scale]
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        for _ in range(n_models):
            model = random_stable_model(rng, 3)
            src, tgt = (int(v) for v in rng.choice(3, size=2, replace=False))
            self.cases.append((model, src, tgt, int(rng.integers(2**63))))
        self.nulls = [
            (TimeSeries("x", 64.0, rng.standard_normal(self.n)),
             TimeSeries("z", 64.0, rng.standard_normal(self.n)))
            for _ in range(n_nulls)
        ]
        self.floor = max(0.005, 3 * plug_in_bias(self.n, self.ORACLE_EMBED.source_history))
        self.n_trials = 0

    def expected_calls(self) -> dict:
        return {
            "infotheory.transfer_entropy": len(self.cases) + len(self.nulls),
            "synth.simulate": len(self.cases),
            "synth.analytic_te": len(self.cases),
            "synth.stationary_covariance": len(self.cases),
            "decoder.build_design": 0,
            "signals.read_recording": 0,
        }

    def run(self):
        pairs = []
        for model, src, tgt, sim_seed in self.cases:
            oracle = synth.analytic_te(model, src, tgt, self.ORACLE_EMBED)
            rec = synth.simulate(model, self.n, seed=sim_seed)
            est = infotheory.transfer_entropy(rec.channels[src], rec.channels[tgt], self.ORACLE_EMBED)
            pairs.append((est, oracle))
        nulls = [infotheory.transfer_entropy(x, z, self.NULL_EMBED) for x, z in self.nulls]
        return pairs, nulls

    def check(self, output, perturb_bits: float = 0.0) -> tuple[list, dict]:
        pairs, nulls = output
        problems = []
        for i, (est, oracle) in enumerate(pairs):
            sd = math.sqrt(1.0 - 2.0 ** (-2.0 * oracle)) / (math.log(2.0) * math.sqrt(self.n))
            tolerance = max(self.floor, self.SD_FACTOR * sd)
            if not abs(est - oracle) <= tolerance:
                problems.append(
                    f"model {i}: |estimate {est:.6f} - oracle {oracle:.6f}| > {tolerance:.6f}"
                )
        below = sum(1 for v in nulls if math.isfinite(v) and 0.0 <= v <= self.NULL_MAX_BITS)
        if below < math.ceil(self.NULL_PASS_SHARE * len(nulls)):
            problems.append(f"{below}/{len(nulls)} null pairs <= {self.NULL_MAX_BITS} bits")
        digests = {"te": _sha256(json.dumps([pairs, nulls]))}
        return problems, digests


WORKLOADS = {w.name: w for w in (CliAllFiles, TrendMemory, VarOracle)}
