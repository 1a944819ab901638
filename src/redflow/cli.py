"""Pipeline orchestration and command-line entry point.

Stages (each resumable from the previous stage's files):

* ``simulate``  config -> dataset directory (per-trial CSV + JSON sidecars)
* ``train``     dataset -> one decoder JSON per (subject, condition)
* ``rates``     dataset + decoders -> rates.ndjson + rd_points.ndjson
* ``report``    rd_points -> pdf.csv, rd_curve.csv, fits.json
* ``all``       the four in memory on the simulated trials, writing the
  same files as the four stages and reading none back

The computations are pure functions of in-memory trials
(:func:`train_decoders`, :func:`compute_rates`, :func:`build_report`); the
stages wrap them with CSV/JSON input and output. ``analyze_scenario`` runs
the whole chain in memory for a simulated scenario.

Every output embeds the hash of the canonical run configuration; ``report``
refuses inputs whose hash differs from its own configuration. The outputs of
``train``, ``rates`` and ``report`` also carry ``data_config_hash``, the hash
the dataset was made with (null for a manifest without one). Outputs are
deterministic for a given config and seed except for one ``generated_at``
timestamp inside each file's metadata line.

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
from pathlib import Path

import numpy as np

from . import analysis, decoder, signals, synth
from .errors import ConfigError, DataError, NoPoints, NumericalError, RedflowError, TooFewSamples
from .infotheory import EmbedSpec, _te_columns, plug_in_bias
from .redundancy import directed_redundancy_bound
from .signals import LEFT_TEMPORAL_LABELS, LagWindow

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
    embed_source_history: int = 16
    embed_target_history: int = 16
    embed_delay: int = 1
    kde_level: float = 0.01
    bin_width_bits: float = 0.005
    bin_stride_bits: float = 0.0025
    fit_on: str = "raw"
    n_subjects: int = 3
    n_trials: int = 10
    n_samples: int = 3200
    n_channels: int = 6
    attended_coupling: float = 0.12
    distractor_coupling: float = 0.03
    observation_noise: float = 1.0

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
        lo = int(round(self.lag_window_ms[0] * self.rate_hz / 1000.0))
        hi = int(round(self.lag_window_ms[1] * self.rate_hz / 1000.0))
        return LagWindow(lo, hi)

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
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
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
    if path is None:
        doc = {}
    else:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if seed_override is not None:
        doc = dict(doc)
        doc["seed"] = seed_override
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# In-memory pipeline core
# ---------------------------------------------------------------------------

_STIM_SUFFIX = {"attended": "att", "distractor": "dst"}

#: The rate record key behind each rate kind of a distortion-rate point.
_RATE_KEYS = {
    "S_to_Shat": "r_s_to_shat", "E_to_Shat": "r_e_to_shat", "S_to_E": "r_s_to_e", "Rmin": "r_min",
}


def _prep_eeg(config: RunConfig, eeg: signals.MultichannelRecording):
    """Channel subset in configured order, each channel normalized; the
    recording must be sampled at the configured rate."""
    if eeg.rate_hz != config.rate_hz:
        raise DataError(f"recorded at {eeg.rate_hz} Hz, config rate_hz is {config.rate_hz} Hz")
    eeg = signals.select_channels(eeg, config.channel_subset)
    return replace(eeg, channels=tuple(signals.normalize(ch) for ch in eeg.channels))


def _stimulus(trial: synth.TrialData, condition: str) -> signals.TimeSeries:
    return trial.attended if condition == "attended" else trial.distractor


@contextmanager
def _context(where: str):
    """Re-raise a package error with ``where`` (the trial's identity) in front."""
    try:
        yield
    except RedflowError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _by_subject(trials) -> dict:
    grouped = {}
    for t in trials:
        grouped.setdefault(t.subject_id, []).append(t)
    return {
        s: sorted(ts, key=lambda t: t.trial_id) for s, ts in sorted(grouped.items())
    }


def train_decoders(config: RunConfig, trials, conditions) -> dict:
    """Cross-validated decoder per (subject, condition).

    Returns ``{(subject, condition): (Decoder, per-lambda mean rho)}``. Each
    trial's design is built once, for all conditions, and only its
    sufficient statistics are kept.
    """
    window = config.lag_window()
    out = {}
    for subject, subject_trials in _by_subject(trials).items():
        per_cond = {c: [] for c in conditions}
        labels = None
        for trial in subject_trials:
            with _context(f"subject {subject}, trial {trial.trial_id}"):
                eeg = _prep_eeg(config, trial.eeg)
                stims = [signals.normalize(_stimulus(trial, c)) for c in conditions]
                for condition, stats in zip(conditions, decoder.trial_stats(eeg, stims, window)):
                    per_cond[condition].append(stats)
            labels = eeg.labels
        for condition in conditions:
            best_lam, mean_rho = decoder.cross_validate_stats(
                per_cond[condition], config.lambda_grid
            )
            fitted = decoder.train_pooled_stats(
                per_cond[condition], window, best_lam, labels, config.rate_hz
            )
            out[(subject, condition)] = (fitted, mean_rho)
    return out


def compute_rates(config: RunConfig, trials, decoders: dict, conditions) -> tuple[list, list]:
    """Rate record and distortion-rate points per (trial, condition).

    Returns (records, points) ordered by subject, trial, then condition.
    ``decoders`` maps (subject, condition) to a (Decoder, cv_curve) pair as
    produced by :func:`train_decoders`; the curve is not used here.
    """
    trials = list(trials)
    if not trials:
        raise NoPoints("no trials to rate")
    window = config.lag_window()
    embed = config.embed()
    records, points = [], []
    for subject, subject_trials in _by_subject(trials).items():
        for condition in conditions:
            if (subject, condition) not in decoders:
                raise DataError(f"no decoder for subject {subject}, {condition}")
        for trial in subject_trials:
            where = f"subject {subject}, trial {trial.trial_id}"
            with _context(where):
                eeg = _prep_eeg(config, trial.eeg)
                valid = signals.lag_valid_slice(eeg.n_samples, window)
                electrodes = signals.MultichannelRecording(
                    channels=tuple(ch.with_samples(ch.samples[valid]) for ch in eeg.channels)
                )
            n_te_rows = electrodes.n_samples - _te_columns(embed)[0] + 1
            for condition in conditions:
                dec, _ = decoders[(subject, condition)]
                with _context(f"{where}, {condition}"):
                    shat = signals.normalize(decoder.reconstruct(dec, eeg))
                    stim = _stimulus(trial, condition)
                    stim = signals.normalize(stim.with_samples(stim.samples[valid]))
                    rho = decoder.pearson(shat, stim)
                    record = {
                        **directed_redundancy_bound(stim, electrodes, shat, embed).to_dict(),
                        "condition": condition,
                        "subject_id": subject,
                        "trial_id": trial.trial_id,
                        "embed": embed.to_dict(),
                        "rho": rho,
                        "distortion": analysis.distortion(rho),
                        "lambda": dec.lam,
                        "plug_in_bias_bits": plug_in_bias(n_te_rows, embed.source_history),
                    }
                records.append(record)
                points.extend(
                    analysis.RateDistortionPoint(
                        rate=record[_RATE_KEYS[kind]],
                        distortion=record["distortion"],
                        condition=condition,
                        subject_id=subject,
                        trial_id=trial.trial_id,
                        rate_kind=kind,
                    )
                    for kind in analysis.RATE_KINDS
                )
    return records, points


def build_report(config: RunConfig, points, conditions, rate_kinds=analysis.RATE_KINDS):
    """Per-cell density, support-thresholded curve, and linear fit.

    Returns (pdf_rows, curve_rows, fits). A failing cell (for example too
    few points) is recorded as an ``error`` entry without aborting the
    other cells.
    """
    pdf_rows = ["rate_kind,condition,rate_bits,density"]
    curve_rows = ["rate_kind,condition,center_bits,mean_distortion_db,count"]
    fits = {}
    for kind in rate_kinds:
        fits[kind] = {}
        for condition in conditions:
            cell_points = [
                p for p in points if p.rate_kind == kind and p.condition == condition
            ]
            fits[kind][condition] = _report_cell(
                config, kind, condition, cell_points, pdf_rows, curve_rows
            )
    return pdf_rows, curve_rows, fits


def _report_cell(config, kind, condition, cell_points, pdf_rows, curve_rows):
    try:
        rates = np.array([p.rate for p in cell_points])
        if rates.size < 5:
            raise TooFewSamples(f"{kind}/{condition}: need >= 5 points, got {rates.size}")
        grid = analysis.default_grid(rates)
        density = analysis.kde_pdf(rates, grid)
        pdf_rows.extend(
            f"{kind},{condition},{g!r},{d!r}"
            for g, d in zip(grid.tolist(), density.tolist())
        )
        threshold = analysis.support_threshold(grid, density, config.kde_level)
        in_support = [p for p in cell_points if p.rate <= threshold]
        curve = analysis.bin_rd(in_support, config.bin_width_bits, config.bin_stride_bits)
        curve_rows.extend(f"{kind},{condition},{c!r},{m!r},{n}" for c, m, n in curve)
        if config.fit_on == "binned":
            fit = analysis.fit_linear([c for c, _, _ in curve], [m for _, m, _ in curve])
        else:
            usable = [p for p in in_support if p.distortion_db is not None]
            fit = analysis.fit_linear(
                [p.rate for p in usable], [p.distortion_db for p in usable]
            )
        cell = fit.to_dict()
        cell.update(
            support_threshold=threshold,
            n_points_total=len(cell_points),
            n_points_in_support=len(in_support),
            n_zero_distortion=sum(1 for p in cell_points if p.distortion == 0.0),
        )
        return cell
    except RedflowError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def analyze_scenario(config: RunConfig, conditions=("attended", "distractor")):
    """Simulate, train, rate, and fit entirely in memory.

    Returns the same fits structure ``report`` writes to ``fits.json``.
    """
    trials = synth.make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
    decoders = train_decoders(config, trials, conditions)
    _, points = compute_rates(config, trials, decoders, conditions)
    _, _, fits = build_report(config, points, conditions)
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


def _read_meta_line(path: Path) -> dict:
    with open(path) as fh:
        first = fh.readline()
    if not first.startswith("# meta "):
        raise DataError(f"{path}: missing metadata header line")
    return json.loads(first[len("# meta "):])


def cmd_simulate(config: RunConfig, data_dir) -> list:
    """Generate the synthetic dataset, write it as CSV/JSON per trial, and
    return the trials written."""
    trials = synth.make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
    _write_dataset(config, Path(data_dir), trials)
    return trials


def _write_dataset(config: RunConfig, data_dir: Path, trials) -> None:
    data_dir.mkdir(parents=True, exist_ok=True)
    subjects = sorted({t.subject_id for t in trials})
    stamp = {"config_hash": config.config_hash()}
    for trial in trials:
        subject_dir = data_dir / trial.subject_id
        subject_dir.mkdir(parents=True, exist_ok=True)
        base = subject_dir / trial.trial_id
        signals.write_recording(trial.eeg, Path(str(base) + "_eeg.csv"), extra_meta=stamp)
        for condition, suffix in _STIM_SUFFIX.items():
            rec = signals.MultichannelRecording(channels=(_stimulus(trial, condition),))
            signals.write_recording(rec, Path(f"{base}_{suffix}.csv"), extra_meta=stamp)
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


def _load_manifest(data_dir: Path) -> dict:
    path = data_dir / "manifest.json"
    if not path.exists():
        raise DataError(f"dataset manifest not found: {path}")
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported schema_version")
    for key in ("subjects", "trials_per_subject"):
        if key not in manifest:
            raise DataError(f"{path}: missing key {key!r}")
    subjects = manifest["subjects"]
    if not (
        isinstance(subjects, list)
        and all(isinstance(s, str) for s in subjects)
        and len(set(subjects)) == len(subjects)
    ):
        raise DataError(f"{path}: subjects must be a list of distinct strings, got {subjects!r}")
    return manifest


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
            eeg, att, dst = (
                signals.read_recording(Path(f"{base}_{suffix}.csv"))
                for suffix in ("eeg", *_STIM_SUFFIX.values())
            )
            trials.append(synth.TrialData(subject, trial_id, att.channels[0], dst.channels[0], eeg))
    return trials, manifest.get("config_hash")


def _decoder_path(out_dir: Path, subject: str, condition: str) -> Path:
    return out_dir / "decoders" / f"{subject}_{condition}.json"


def cmd_train(config: RunConfig, data_dir, out_dir, conditions=("attended", "distractor")) -> None:
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


def cmd_rates(config: RunConfig, data_dir, out_dir, conditions=("attended", "distractor")) -> None:
    """Reconstruct, correlate, and compute the rate bundle per trial."""
    out_dir = Path(out_dir)
    trials, data_hash = load_trials(data_dir)
    decoders = {}
    for subject in sorted({t.subject_id for t in trials}):
        for condition in conditions:
            path = _decoder_path(out_dir, subject, condition)
            decoders[(subject, condition)] = (decoder.load_decoder(path), None)
    records, points = compute_rates(config, trials, decoders, conditions)
    _write_rates(config, out_dir, records, points, data_hash)


def _write_rates(config: RunConfig, out_dir: Path, records, points, data_hash) -> None:
    meta = _run_meta(config, data_hash)
    _write_with_meta(
        out_dir / "rates.ndjson", meta,
        [json.dumps(r, sort_keys=True) for r in records],
    )
    _write_with_meta(
        out_dir / "rd_points.ndjson", meta,
        [json.dumps(p.to_dict(), sort_keys=True) for p in points],
    )


def read_rd_points(path) -> tuple[dict, list]:
    """Read an rd_points.ndjson file; returns (meta, points)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"rate-distortion points not found: {path}")
    meta = _read_meta_line(path)
    points = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            try:
                doc = json.loads(line)
                points.append(analysis.RateDistortionPoint(**{
                    f.name: float(doc[f.name]) if f.type == "float" else doc[f.name]
                    for f in fields(analysis.RateDistortionPoint)
                }))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(
                    f"{path}, line {lineno}: malformed point ({type(exc).__name__}: {exc})"
                ) from None
    return meta, points


def cmd_report(
    config: RunConfig,
    out_dir,
    conditions=("attended", "distractor"),
    rate_kinds=analysis.RATE_KINDS,
) -> None:
    """Write pdf.csv, rd_curve.csv, and fits.json from the rate-distortion points."""
    out_dir = Path(out_dir)
    in_meta, points = read_rd_points(out_dir / "rd_points.ndjson")
    if in_meta.get("config_hash") != config.config_hash():
        raise DataError(
            f"config hash mismatch: rd_points carries {in_meta.get('config_hash')!r}, "
            f"current config is {config.config_hash()!r}"
        )
    report = build_report(config, points, conditions, rate_kinds)
    _write_report(config, out_dir, *report, in_meta.get("data_config_hash"))


def _write_report(config: RunConfig, out_dir: Path, pdf_rows, curve_rows, fits, data_hash) -> None:
    meta = _run_meta(config, data_hash)
    _write_with_meta(out_dir / "pdf.csv", meta, pdf_rows)
    _write_with_meta(out_dir / "rd_curve.csv", meta, curve_rows)
    signals.write_json(out_dir / "fits.json", {"meta": meta, "fits": fits})


def cmd_all(config: RunConfig, data_dir, out_dir, conditions=("attended", "distractor")) -> None:
    """The four stages on the simulated trials in memory: each file is
    written once, by the same writer as its stage, and none is read back."""
    out_dir, data_hash = Path(out_dir), config.config_hash()
    trials = cmd_simulate(config, data_dir)
    fitted = train_decoders(config, trials, conditions)
    _write_decoders(config, out_dir, fitted, data_hash)
    records, points = compute_rates(config, trials, fitted, conditions)
    _write_rates(config, out_dir, records, points, data_hash)
    _write_report(config, out_dir, *build_report(config, points, conditions), data_hash)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _conditions(which: str) -> tuple:
    if which == "both":
        return ("attended", "distractor")
    return (which,)


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
            choices=("attended", "distractor", "both"),
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
        conditions = _conditions(args.condition)
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
    except (RedflowError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
