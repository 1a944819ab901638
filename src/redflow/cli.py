"""Pipeline orchestration and command-line entry point.

Stages (each resumable from the previous stage's files):

* ``simulate``  config -> dataset directory (per-trial CSV + JSON sidecars)
* ``train``     dataset -> one decoder JSON per (subject, condition)
* ``rates``     dataset + decoders -> rates.ndjson, and rd_points.ndjson,
  each record's rate of every kind beside its distortion, as an export
* ``report``    rates.ndjson -> pdf.csv, rd_curve.csv, fits.json, from each
  (rate kind, condition) cell's rates and distortions (:func:`report_cells`)
* ``all``       the four in memory on the simulated trials, writing the
  same files as the four stages and reading none back

The computations are pure functions of in-memory trials
(:func:`train_decoders`, :func:`compute_rates`, :func:`build_report`); the
stages wrap them with CSV/JSON input and output. A (trial, condition)'s rate
record is its :class:`~redflow.redundancy.RateBundle` plus the trial's
identity and decoding fields; ``analysis.RATE_KEYS`` names each rate kind's
key. ``analyze_scenario`` runs the whole chain in memory for a simulated
scenario, generating each subject in the task that trains and rates it.
Each subject is trained and rated, and each trial's files written, on its
own, in one pool of forked worker processes per command where more than
one CPU is usable (:func:`~redflow.workers._pool`); ``simulate`` and
``all`` start a second pool first where the scenario has more than one
generation batch (:func:`~redflow.synth.make_aad_scenario`).
Each file is written by exactly one process; the parent writes the dataset
manifest and every file under the output directory, so outputs do not
depend on the worker count.

Every output embeds the hash of the canonical run configuration; ``rates``
refuses decoders and ``report`` refuses rate records whose hash differs from
its own configuration. The outputs of ``train``, ``rates`` and ``report`` also
carry ``data_config_hash``, the hash the dataset was made with (null for a
manifest without one). Outputs are deterministic for a given config and
seed except for one ``generated_at`` timestamp inside each file's metadata
line.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, decoder, signals, synth
from .errors import ConfigError, DataError, NoPoints, NumericalError, RedflowError, TooFewSamples
from .infotheory import EmbedSpec
from .redundancy import directed_redundancy_bound
from .signals import LEFT_TEMPORAL_LABELS, LagWindow
from .workers import _map_groups, _pool

CONFIG_VERSION = 1
SCHEMA_VERSION = 1

DEFAULT_LAMBDA_GRID = tuple(10.0**k for k in range(-6, 7))


def _file_key(name: str) -> tuple:
    """(section, key) of a RunConfig field in the config file: ``embed_<k>``
    is ``embed.<k>``, a scenario parameter is ``scenario.<k>``, and any
    other field is a top-level key (section ``None``)."""
    if name.startswith("embed_"):
        return "embed", name[len("embed_"):]
    if name != "seed" and name in synth.AadScenario.__dataclass_fields__:
        return "scenario", name
    return None, name


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def _coerce(key: str, default, value):
    """``value`` as the type of ``default``: an int takes only integral
    numbers, a float only finite numbers, a tuple only a list or tuple of its
    element type; bools are not numbers."""
    kind = type(default)
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_coerce(f"{key}[{i}]", default[0], v) for i, v in enumerate(value))
    if kind is str:
        ok = isinstance(value, str)
    elif type(value) is int:
        ok = kind is int or abs(value) <= sys.float_info.max
    else:
        ok = type(value) is float and np.isfinite(value) and (kind is float or value.is_integer())
    if not ok:
        raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration and the one statement of the file schema:
    each field maps to a file key by :func:`_file_key` and takes values of
    its default's type (see README)."""

    seed: int = 0
    rate_hz: float = 64.0
    channel_subset: tuple = LEFT_TEMPORAL_LABELS
    lag_window_ms: tuple = (0.0, 250.0)
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    embed_source_history: int = EmbedSpec.source_history
    embed_target_history: int = EmbedSpec.target_history
    embed_delay: int = EmbedSpec.delay
    kde_level: float = 0.01
    bin_width_bits: float = 0.005
    bin_stride_bits: float = 0.0025
    fit_on: str = "raw"
    n_subjects: int = synth.AadScenario.n_subjects
    n_trials: int = synth.AadScenario.n_trials
    n_samples: int = synth.AadScenario.n_samples
    n_channels: int = synth.AadScenario.n_channels
    attended_coupling: float = synth.AadScenario.attended_coupling
    distractor_coupling: float = synth.AadScenario.distractor_coupling
    observation_noise: float = synth.AadScenario.observation_noise

    def __post_init__(self):
        for f in fields(self):
            section, key = _file_key(f.name)
            dotted = key if section is None else f"{section}.{key}"
            object.__setattr__(self, f.name, _coerce(dotted, f.default, getattr(self, f.name)))
        if self.fit_on not in ("binned", "raw"):
            raise ConfigError(f"fit_on must be 'binned' or 'raw', got {self.fit_on!r}")
        if self.rate_hz <= 0:
            raise ConfigError(f"rate_hz must be > 0, got {self.rate_hz}")
        if not self.channel_subset or len(set(self.channel_subset)) != len(self.channel_subset):
            raise ConfigError(
                f"channel_subset must be non-empty without duplicates, got {self.channel_subset}"
            )
        if self.kde_level < 0:
            raise ConfigError("kde_level must be >= 0")
        if self.bin_width_bits <= 0 or self.bin_stride_bits <= 0:
            raise ConfigError("bin widths must be > 0")
        if self.bin_stride_bits > self.bin_width_bits:
            raise ConfigError(
                f"bin_stride_bits ({self.bin_stride_bits}) must be <= "
                f"bin_width_bits ({self.bin_width_bits}), or some rates fall in no bin"
            )
        if not self.lambda_grid:
            raise ConfigError("lambda_grid must be non-empty")
        if any(v < 0 for v in self.lambda_grid):
            raise ConfigError("lambda_grid values must be >= 0")
        if len(self.lag_window_ms) != 2 or self.lag_window_ms[0] > self.lag_window_ms[1]:
            raise ConfigError(f"lag_window_ms must be (lo, hi), got {self.lag_window_ms}")
        try:
            self.embed()
            self.lag_window()
            self.scenario()
        except RedflowError as exc:
            raise ConfigError(str(exc)) from exc

    def embed(self) -> EmbedSpec:
        return EmbedSpec(**self.to_dict()["embed"])

    def lag_window(self) -> LagWindow:
        lags = [ms * self.rate_hz / 1000.0 for ms in self.lag_window_ms]
        if not np.isfinite(lags).all():
            raise ConfigError(f"lag_window_ms {list(self.lag_window_ms)} overflows at {self.rate_hz} Hz")
        return LagWindow(*(round(lag) for lag in lags))

    def scenario(self) -> synth.AadScenario:
        return synth.AadScenario(seed=self.seed, **self.to_dict()["scenario"])

    def to_dict(self) -> dict:
        doc = {"config_version": CONFIG_VERSION, "embed": {}, "scenario": {}}
        for f in fields(self):
            section, key = _file_key(f.name)
            value = getattr(self, f.name)
            target = doc if section is None else doc[section]
            target[key] = list(value) if isinstance(value, tuple) else value
        return doc

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed config file, applying defaults."""
    doc = dict(doc)
    version = _coerce("config_version", CONFIG_VERSION, doc.pop("config_version", CONFIG_VERSION))
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config_version {version!r}")
    sections = {None: doc}
    for name in ("embed", "scenario"):
        sections[name] = doc.pop(name, {})
        if not isinstance(sections[name], dict):
            raise ConfigError(f"{name} must be a JSON object")
        sections[name] = dict(sections[name])
    kwargs = {}  # each known key is popped, so what remains is unknown
    for f in fields(RunConfig):
        section, key = _file_key(f.name)
        if key in sections[section]:
            kwargs[f.name] = sections[section].pop(key)
    unknown = [k if s is None else f"{s}.{k}" for s, keys in sections.items() for k in keys]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**kwargs)


def load_config(path, seed_override: int | None = None) -> RunConfig:
    """Load a JSON config file; ``seed_override`` replaces its seed."""
    try:
        doc = {} if path is None else signals.read_json(path)
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    if seed_override is not None:
        doc["seed"] = seed_override
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# In-memory pipeline core
# ---------------------------------------------------------------------------

_STIM_SUFFIX = {"attended": "att", "distractor": "dst"}


def _prep_eeg(config: RunConfig, eeg: signals.MultichannelRecording):
    """Channel subset in configured order, each channel normalized; the
    recording must be sampled at the configured rate."""
    if eeg.rate_hz != config.rate_hz:
        raise DataError(f"recorded at {eeg.rate_hz} Hz, config rate_hz is {config.rate_hz} Hz")
    return signals.normalize(signals.select_channels(eeg, config.channel_subset))


def _stimulus(trial: synth.TrialData, condition: str) -> signals.TimeSeries:
    if condition not in analysis.CONDITIONS:
        raise ConfigError(f"unknown condition {condition!r}, expected one of {analysis.CONDITIONS}")
    return trial.attended if condition == "attended" else trial.distractor


@contextmanager
def _context(where: str, conditions=()):
    """Re-raise a package error with ``where`` (a subject's or trial's identity)
    in front, then ``, <condition>`` if its ``target`` indexes ``conditions``."""
    try:
        yield
    except RedflowError as exc:
        if conditions and hasattr(exc, "target"):
            where = f"{where}, {conditions[exc.target]}"
        raise type(exc)(f"{where}: {exc}") from exc


def _by_subject(trials) -> list:
    """``(subject, trials)`` pairs, ordered by subject, then trial."""
    grouped = {}
    for t in trials:
        grouped.setdefault(t.subject_id, []).append(t)
    return [(s, sorted(ts, key=lambda t: t.trial_id)) for s, ts in sorted(grouped.items())]


def _train_subject(config: RunConfig, conditions, group) -> dict:
    """Decoders of one ``(subject, trials)`` group (see :func:`train_decoders`),
    each condition one target of the subject's ridge system."""
    subject, subject_trials = group
    window = config.lag_window()
    stats = []
    for trial in subject_trials:
        with _context(f"subject {subject}, trial {trial.trial_id}"):
            eeg = _prep_eeg(config, trial.eeg)
            stims = [signals.normalize(_stimulus(trial, c)) for c in conditions]
            stats.append(decoder.trial_stats(eeg, stims, window))
    with _context(f"subject {subject}", conditions):  # the shared system's, or one target's error
        fits = decoder.fit_decoders(stats, config.lambda_grid, window, eeg.labels, config.rate_hz)
    return {(subject, condition): fit for condition, fit in zip(conditions, fits)}


def train_decoders(config: RunConfig, trials, conditions) -> dict:
    """Cross-validated decoder per (subject, condition).

    Returns ``{(subject, condition): (Decoder, per-lambda mean rho)}``. Each
    trial's design is built once, for all conditions, and only its
    sufficient statistics are kept; each subject's cross-validation
    decomposes each fold's Gram once, for every lambda and condition.
    Subjects are trained independently (:func:`_map_groups`).
    """
    out = {}
    for part in _map_groups(_train_subject, (config, conditions), _by_subject(trials)):
        out.update(part)
    return out


def _rate_subject(config: RunConfig, decoders: dict, conditions, group) -> list:
    """Rate records of one ``(subject, trials)`` group (see :func:`compute_rates`),
    each condition one (stimulus, reconstruction) pair of a trial's one bound
    call: its rate bundle, with the trial's identity and decoding fields added."""
    subject, subject_trials = group
    window = config.lag_window()
    embed = config.embed()
    for condition in conditions:
        if (subject, condition) not in decoders:
            raise DataError(f"no decoder for subject {subject}, {condition}")
    records = []
    for trial in subject_trials:
        where = f"subject {subject}, trial {trial.trial_id}"
        with _context(where):
            eeg = _prep_eeg(config, trial.eeg)
            valid = signals.lag_valid_slice(eeg.n_samples, window)
            electrodes = replace(eeg, samples=eeg.samples[:, valid])
        rated = []
        for condition in conditions:
            dec, _ = decoders[(subject, condition)]
            with _context(f"{where}, {condition}"):
                shat = signals.normalize(decoder.reconstruct(dec, eeg))
                stim = _stimulus(trial, condition)
                decoder.check_stimulus(eeg, stim)
                stim = signals.normalize(stim.with_samples(stim.samples[valid]))
                rho = decoder.pearson(shat, stim)
                rated.append((stim, shat, {
                    "condition": condition,
                    "subject_id": subject,
                    "trial_id": trial.trial_id,
                    "rho": rho,
                    "distortion": analysis.distortion(rho),
                    "lambda": dec.lam,
                }))
        stims, shats, rests = zip(*rated)
        with _context(where, conditions):
            bundles = directed_redundancy_bound(stims, electrodes, shats, embed)
        records.extend({**bundle.to_dict(), **rest} for bundle, rest in zip(bundles, rests))
    return records


def _fit_and_rate(config: RunConfig, conditions, group) -> tuple[dict, list]:
    """Decoders and rate records of one ``(subject, trials)`` group, trained then rated."""
    decoders = _train_subject(config, conditions, group)
    return decoders, _rate_subject(config, decoders, conditions, group)


def report_cells(records) -> dict:
    """``{(rate kind, condition): (rates, distortions)}``: each cell's rates
    (the record key ``analysis.RATE_KEYS`` names) and distortions, as float64
    arrays in record order. Cells run by kind, then by condition in order of
    first appearance."""
    by_condition = {}
    for record in records:
        by_condition.setdefault(record["condition"], []).append(record)
    return {
        (kind, condition): (
            np.array([r[key] for r in rows], dtype=np.float64),
            np.array([r["distortion"] for r in rows], dtype=np.float64),
        )
        for kind, key in analysis.RATE_KEYS.items()
        for condition, rows in by_condition.items()
    }


def compute_rates(config: RunConfig, trials, decoders: dict, conditions) -> tuple[list, dict]:
    """Rate record per (trial, condition), and the report's cells.

    Returns (records, :func:`report_cells` of the records), the records
    ordered by subject, trial, then condition. ``decoders`` maps (subject,
    condition) to a (Decoder, cv_curve) pair as produced by
    :func:`train_decoders`; the curve is not used here. Subjects are rated
    independently (:func:`_map_groups`).
    """
    trials = list(trials)
    if not trials:
        raise NoPoints("no trials to rate")
    parts = _map_groups(_rate_subject, (config, decoders, conditions), _by_subject(trials))
    records = [record for part in parts for record in part]
    return records, report_cells(records)


def build_report(config: RunConfig, cells: dict, conditions, rate_kinds=analysis.RATE_KINDS):
    """Per-cell density, support-thresholded curve, and linear fit.

    ``cells`` is :func:`report_cells`' mapping; a missing cell has no
    points. Returns (pdf_rows, curve_rows, fits). A failing cell (for
    example too few points) is recorded as an ``error`` entry without
    aborting the other cells.
    """
    pdf_rows = ["rate_kind,condition,rate_bits,density"]
    curve_rows = ["rate_kind,condition,center_bits,mean_distortion_db,count"]
    no_points = (np.empty(0), np.empty(0))
    fits = {}
    for kind in rate_kinds:
        fits[kind] = {}
        for condition in conditions:
            rates, distortions = cells.get((kind, condition), no_points)
            fits[kind][condition] = _report_cell(
                config, kind, condition, rates, distortions, pdf_rows, curve_rows
            )
    return pdf_rows, curve_rows, fits


def _report_cell(config, kind, condition, rates, distortions, pdf_rows, curve_rows):
    try:
        if rates.size < 5:
            raise TooFewSamples(f"{kind}/{condition}: need >= 5 points, got {rates.size}")
        grid = analysis.default_grid(rates)
        density = analysis.kde_pdf(rates, grid)
        pdf_rows.extend(
            f"{kind},{condition},{g!r},{d!r}"
            for g, d in zip(grid.tolist(), density.tolist())
        )
        threshold = analysis.support_threshold(grid, density, config.kde_level)
        in_support = rates <= threshold
        kept = rates[in_support], distortions[in_support]
        curve = analysis.bin_rd(*kept, config.bin_width_bits, config.bin_stride_bits)
        curve_rows.extend(f"{kind},{condition},{c!r},{m!r},{n}" for c, m, n in curve)
        if config.fit_on == "binned":
            fit = analysis.fit_linear([c for c, _, _ in curve], [m for _, m, _ in curve])
        else:
            usable = in_support & (distortions != 0.0)
            fit = analysis.fit_linear(
                rates[usable], [analysis.to_db(d) for d in distortions[usable].tolist()]
            )
        cell = fit.to_dict()
        cell.update(
            support_threshold=threshold,
            n_points_total=rates.size,
            n_points_in_support=int(in_support.sum()),
            n_zero_distortion=int((distortions == 0.0).sum()),
        )
        return cell
    except RedflowError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _analyze_subject(config: RunConfig, conditions, index: int) -> list:
    """Rate records of scenario subject ``index``, generated here."""
    trials = synth.make_aad_scenario(config.scenario(), config.rate_hz, subjects=[index])
    return _fit_and_rate(config, conditions, *_by_subject(trials))[1]


def analyze_scenario(config: RunConfig, conditions=analysis.CONDITIONS):
    """Simulate, train, rate, and fit entirely in memory, one subject per
    task (:func:`_map_groups`); only rate records reach the caller's process.

    Returns the same fits structure ``report`` writes to ``fits.json``.
    """
    parts = _map_groups(_analyze_subject, (config, conditions), range(config.n_subjects))
    records = [record for part in parts for record in part]
    _, _, fits = build_report(config, report_cells(records), conditions)
    return fits


# ---------------------------------------------------------------------------
# File-backed stages
# ---------------------------------------------------------------------------

def _run_meta(config: RunConfig, data_hash: str | None) -> dict:
    return {
        "config_hash": config.config_hash(),
        "data_config_hash": data_hash,
        "seed": config.seed,
        "embed": config.embed().to_dict(),
        "lag_window": [config.lag_window().tau_min, config.lag_window().tau_max],
        "lambda_grid": list(config.lambda_grid),
        "rng": synth.RNG_ALGORITHM,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _write_with_meta(path: Path, meta: dict, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# meta " + json.dumps(meta, sort_keys=True) + "\n")
        for line in lines:
            fh.write(line + "\n")


def cmd_simulate(config: RunConfig, data_dir) -> None:
    """Generate the synthetic dataset and write it as CSV/JSON per trial."""
    trials = synth.make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
    _write_dataset(config, Path(data_dir), trials)


def _write_trial(data_dir: Path, stamp: dict, trial: synth.TrialData) -> None:
    """One trial's EEG and stimulus CSV files, each with its sidecar."""
    base = data_dir / trial.subject_id / trial.trial_id
    signals.write_recording(trial.eeg, Path(str(base) + "_eeg.csv"), extra_meta=stamp)
    for condition, suffix in _STIM_SUFFIX.items():
        stim = _stimulus(trial, condition)
        rec = signals.MultichannelRecording((stim.label,), stim.rate_hz, stim.samples[None])
        signals.write_recording(rec, Path(f"{base}_{suffix}.csv"), extra_meta=stamp)


def _write_dataset(config: RunConfig, data_dir: Path, trials, conditions=()) -> list:
    """The directories, then one :func:`_pool`: given ``conditions``, a task
    per subject that trains and rates it, dispatched first as the longest,
    and a task per trial that writes its files. Any earlier manifest is
    deleted first, and the new one written after the writes are read, so a
    failed run leaves none; returns the subjects' (decoders, records)."""
    subjects = sorted({t.subject_id for t in trials})
    data_dir.mkdir(parents=True, exist_ok=True)
    (data_dir / "manifest.json").unlink(missing_ok=True)
    for subject in subjects:
        (data_dir / subject).mkdir(exist_ok=True)
    groups = _by_subject(trials) if conditions else []
    fits = [partial(_fit_and_rate, config, conditions, group) for group in groups]
    stamp = {"config_hash": config.config_hash()}
    writes = [partial(_write_trial, data_dir, stamp, trial) for trial in trials]
    with _pool(fits + writes) as results:
        for write in results[len(fits):]:
            write()
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "config_hash": config.config_hash(),
            "seed": config.seed,
            "rng": synth.RNG_ALGORITHM,
            "rate_hz": config.rate_hz,
            "subjects": subjects,
            "trials_per_subject": config.n_trials,
            "n_samples": config.n_samples,
        }
        signals.write_json(data_dir / "manifest.json", manifest)
        return [fit() for fit in results[: len(fits)]]


def _load_manifest(data_dir: Path) -> dict:
    path = data_dir / "manifest.json"
    manifest = signals.read_json(path)
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema_version")
    subjects = manifest.get("subjects")
    if not (
        isinstance(subjects, list)
        and all(isinstance(s, str) for s in subjects)
        and len(set(subjects)) == len(subjects)
    ):
        raise DataError(f"{path}: subjects must be a list of distinct strings, got {subjects!r}")
    count = manifest.get("trials_per_subject")
    if type(count) is not int:
        raise DataError(f"{path}: trials_per_subject must be an integer, got {count!r}")
    return manifest


def _read_stimulus(path: Path) -> signals.TimeSeries:
    """The one column of a stimulus file."""
    rec = signals.read_recording(path)
    if len(rec.labels) != 1:
        raise DataError(f"{path}: a stimulus file holds one column, found {list(rec.labels)}")
    return rec.channels[0]


def load_trials(data_dir) -> tuple[list, str | None]:
    """Read every trial of a dataset directory into memory.

    A trial's identity comes from the layout alone: the subject from the
    manifest (and its directory), the trial from the file stem. Returns the
    trials and the manifest's ``config_hash`` (None if it has none).
    """
    data_dir = Path(data_dir)
    manifest = _load_manifest(data_dir)
    trials = []
    for subject in manifest["subjects"]:
        subject_dir = data_dir / subject
        if not subject_dir.is_dir():
            raise DataError(f"missing subject directory: {subject_dir}")
        trial_ids = sorted(
            p.name[: -len("_eeg.csv")] for p in subject_dir.glob("*_eeg.csv")
        )
        if not trial_ids:
            raise DataError(f"no trials found under {subject_dir}")
        if len(trial_ids) != manifest["trials_per_subject"]:
            raise DataError(
                f"subject {subject}: {len(trial_ids)} trials under {subject_dir}, "
                f"manifest lists {manifest['trials_per_subject']}"
            )
        for trial_id in trial_ids:
            base = subject_dir / trial_id
            eeg = signals.read_recording(Path(f"{base}_eeg.csv"))
            att, dst = (_read_stimulus(Path(f"{base}_{suffix}.csv")) for suffix in _STIM_SUFFIX.values())
            trials.append(synth.TrialData(subject, trial_id, att, dst, eeg))
    return trials, manifest.get("config_hash")


def _decoder_path(out_dir: Path, subject: str, condition: str) -> Path:
    return out_dir / "decoders" / f"{subject}_{condition}.json"


def cmd_train(config: RunConfig, data_dir, out_dir, conditions=analysis.CONDITIONS) -> None:
    """Cross-validate lambda and fit one decoder per (subject, condition)."""
    trials, data_hash = load_trials(data_dir)
    _write_decoders(config, Path(out_dir), train_decoders(config, trials, conditions), data_hash)


def _write_decoders(config: RunConfig, out_dir: Path, fitted: dict, data_hash) -> None:
    (out_dir / "decoders").mkdir(parents=True, exist_ok=True)
    for (subject, condition), (dec, mean_rho) in sorted(fitted.items()):
        decoder.save_decoder(
            dec,
            _decoder_path(out_dir, subject, condition),
            extra_meta={
                "config_hash": config.config_hash(),
                "data_config_hash": data_hash,
                "subject_id": subject,
                "condition": condition,
                "cv_lambdas": list(config.lambda_grid),
                "cv_mean_rho": mean_rho,
            },
        )


def _require_config_hash(config: RunConfig, path, meta) -> None:
    """Refuse an input file whose metadata does not carry the current
    config's hash (a file made under another configuration)."""
    found = meta.get("config_hash") if isinstance(meta, dict) else None
    if found != config.config_hash():
        raise DataError(
            f"{path}: config hash mismatch: the file carries {found!r}, "
            f"current config is {config.config_hash()!r}"
        )


def _require_decoder_fits(config: RunConfig, path, dec: decoder.Decoder) -> None:
    """Refuse a decoder whose channels (in order), lag window or sampling
    rate differ from the current config's."""
    for name, want in (
        ("channel_labels", config.channel_subset),
        ("lag_window", config.lag_window()),
        ("train_rate_hz", config.rate_hz),
    ):
        found = getattr(dec, name)
        if found != want:
            raise DataError(f"{path}: decoder {name} {found!r} != config's {want!r}")


def cmd_rates(config: RunConfig, data_dir, out_dir, conditions=analysis.CONDITIONS) -> None:
    """Reconstruct, correlate, and rate each trial; each decoder file is parsed once."""
    out_dir = Path(out_dir)
    trials, data_hash = load_trials(data_dir)
    decoders = {}
    for subject in sorted({t.subject_id for t in trials}):
        for condition in conditions:
            path = _decoder_path(out_dir, subject, condition)
            doc = signals.read_json(path)
            _require_config_hash(config, path, doc.get("meta"))
            dec = decoder.decoder_from_doc(doc, path)
            _require_decoder_fits(config, path, dec)
            decoders[(subject, condition)] = (dec, None)
    records, _ = compute_rates(config, trials, decoders, conditions)
    _write_rates(config, out_dir, records, data_hash)


def _write_rates(config: RunConfig, out_dir: Path, records, data_hash) -> None:
    """rates.ndjson, and rd_points.ndjson: one line per record and rate kind
    (``analysis.RATE_KEYS`` order), ``distortion_db`` null at zero distortion."""
    meta = _run_meta(config, data_hash)
    _write_with_meta(
        out_dir / "rates.ndjson", meta,
        [json.dumps(r, sort_keys=True) for r in records],
    )
    _write_with_meta(
        out_dir / "rd_points.ndjson", meta,
        [
            json.dumps({
                **{k: r[k] for k in ("condition", "distortion", "subject_id", "trial_id")},
                "distortion_db": analysis.to_db(r["distortion"]) if r["distortion"] else None,
                "rate": r[key],
                "rate_kind": kind,
            }, sort_keys=True)
            for r in records for kind, key in analysis.RATE_KEYS.items()
        ],
    )


def read_rates(path) -> tuple[dict, list]:
    """Read a rates.ndjson file; returns (meta, records) in file order.

    Each record's four rates must be JSON numbers, finite and >= 0, its
    distortion a JSON number in [0, 1], its condition one of
    ``CONDITIONS``, and it must name its subject and trial."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"rate records not found: {path}")
    lines = path.read_text().split("\n")
    if not lines[0].startswith("# meta "):
        raise DataError(f"{path}: missing metadata header line")
    records = []
    for lineno, line in enumerate(lines, start=1):
        if lineno > 1 and (line.startswith("#") or not line.strip()):
            continue
        try:
            doc = json.loads(line.removeprefix("# meta "))
            if not isinstance(doc, dict):
                raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
            if lineno == 1:
                meta = doc
                continue
            for key in (*analysis.RATE_KEYS.values(), "distortion"):
                value = doc[key] = signals.json_number(doc[key])
                if not 0.0 <= value < np.inf:
                    raise ValueError(f"{key} must be finite and >= 0, got {value}")
            if doc["distortion"] > 1.0:
                raise ValueError(f"distortion must be in [0, 1], got {doc['distortion']}")
            if doc["condition"] not in analysis.CONDITIONS:
                raise ValueError(f"unknown condition {doc['condition']!r}")
            if not {"subject_id", "trial_id"} <= doc.keys():
                raise KeyError("a record names its subject_id and trial_id")
            records.append(doc)
        except (KeyError, TypeError, ValueError, OverflowError, RedflowError) as exc:
            raise DataError(f"{path}, line {lineno}: {type(exc).__name__}: {exc}") from None
    return meta, records


def cmd_report(
    config: RunConfig,
    out_dir,
    conditions=analysis.CONDITIONS,
    rate_kinds=analysis.RATE_KINDS,
) -> None:
    """Write pdf.csv, rd_curve.csv, and fits.json from the rate records."""
    out_dir = Path(out_dir)
    path = out_dir / "rates.ndjson"
    in_meta, records = read_rates(path)
    _require_config_hash(config, path, in_meta)
    report = build_report(config, report_cells(records), conditions, rate_kinds)
    _write_report(config, out_dir, *report, in_meta.get("data_config_hash"))


def _write_report(config: RunConfig, out_dir: Path, pdf_rows, curve_rows, fits, data_hash) -> None:
    meta = _run_meta(config, data_hash)
    _write_with_meta(out_dir / "pdf.csv", meta, pdf_rows)
    _write_with_meta(out_dir / "rd_curve.csv", meta, curve_rows)
    signals.write_json(out_dir / "fits.json", {"meta": meta, "fits": fits})


def cmd_all(config: RunConfig, data_dir, out_dir, conditions=analysis.CONDITIONS) -> None:
    """The four stages on the simulated trials in memory, in one pool
    (:func:`_write_dataset`), after the one the scenario's generation may
    start: each file is written once, by the same writer as its stage, and
    none is read back."""
    out_dir, data_hash = Path(out_dir), config.config_hash()
    trials = synth.make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
    parts = _write_dataset(config, Path(data_dir), trials, conditions)
    fitted = {key: fit for decoders, _ in parts for key, fit in decoders.items()}
    records = [record for _, part in parts for record in part]
    _write_decoders(config, out_dir, fitted, data_hash)
    _write_rates(config, out_dir, records, data_hash)
    report = build_report(config, report_cells(records), conditions)
    _write_report(config, out_dir, *report, data_hash)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redflow",
        description="Simulate, decode, and analyze redundant information flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "train", "rates", "report", "all"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--data", default="data", help="dataset directory")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--condition",
            choices=(*analysis.CONDITIONS, "both"),
            default="both",
        )
        if name == "report":
            p.add_argument(
                "--rate-kind",
                choices=analysis.RATE_KINDS,
                default=None,
                help="restrict the report to one rate kind",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed)
        conditions = analysis.CONDITIONS if args.condition == "both" else (args.condition,)
        if args.command == "simulate":
            cmd_simulate(config, args.data)
        elif args.command == "train":
            cmd_train(config, args.data, args.out, conditions)
        elif args.command == "rates":
            cmd_rates(config, args.data, args.out, conditions)
        elif args.command == "report":
            kinds = analysis.RATE_KINDS if args.rate_kind is None else (args.rate_kind,)
            cmd_report(config, args.out, conditions, kinds)
        elif args.command == "all":
            cmd_all(config, args.data, args.out, conditions)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (RedflowError, OSError) as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
