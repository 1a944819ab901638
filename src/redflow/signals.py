"""Time-series containers and the signal transforms shared by the pipeline.

Everything downstream (decoding, information rates, reports) consumes the
types defined here: a single named channel (:class:`TimeSeries`), an aligned
set of channels for one trial (:class:`MultichannelRecording`), and a lag
range (:class:`LagWindow`). All values are immutable after construction and
safe for concurrent read-only use.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, hilbert, sosfilt

from .errors import (
    DataError,
    InvalidRate,
    ShapeMismatch,
    UnknownChannel,
    WindowTooLarge,
    ZeroVarianceSignal,
)

#: Left-temporal electrode subset in the extended 10-20 64-channel layout,
#: used as the default channel selection for rate analysis.
LEFT_TEMPORAL_LABELS = ("FT7", "T7", "TP7", "CP5", "FC5", "C5")


def _as_samples(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeMismatch(f"samples must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeMismatch("samples must be finite (no NaN/Inf)")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One uniformly sampled real-valued sequence.

    Parameters
    ----------
    label : str
        Channel or signal name.
    rate_hz : float
        Sampling rate in samples per second, > 0.
    samples : array_like
        Finite real values; stored as a read-only float64 array.
    """

    label: str
    rate_hz: float
    samples: np.ndarray

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise InvalidRate(f"rate_hz must be > 0, got {self.rate_hz}")
        object.__setattr__(self, "samples", _as_samples(self.samples))

    def __len__(self) -> int:
        return self.samples.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TimeSeries)
            and self.label == other.label
            and self.rate_hz == other.rate_hz
            and np.array_equal(self.samples, other.samples)
        )

    def with_samples(self, samples, label: str | None = None) -> "TimeSeries":
        """Same rate and (by default) label, new sample values."""
        return TimeSeries(self.label if label is None else label, self.rate_hz, samples)


@dataclass(frozen=True, eq=False)
class MultichannelRecording:
    """Aligned set of channels for one trial.

    All channels must share the sampling rate and length, and labels must be
    unique. A recording holds only its channels; which subject, trial and
    stimulus it belongs to is the caller's to keep.
    """

    channels: tuple

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        if not self.channels:
            raise ShapeMismatch("recording needs at least one channel")
        rate = self.channels[0].rate_hz
        n = len(self.channels[0])
        for ch in self.channels:
            if ch.rate_hz != rate or len(ch) != n:
                raise ShapeMismatch(
                    f"channel {ch.label!r} does not match rate/length of the first channel"
                )
        labels = [ch.label for ch in self.channels]
        if len(set(labels)) != len(labels):
            raise ShapeMismatch(f"channel labels must be unique, got {labels}")

    @property
    def labels(self) -> tuple:
        return tuple(ch.label for ch in self.channels)

    @property
    def rate_hz(self) -> float:
        return self.channels[0].rate_hz

    @property
    def n_samples(self) -> int:
        return len(self.channels[0])

    def channel(self, label: str) -> TimeSeries:
        for ch in self.channels:
            if ch.label == label:
                return ch
        raise UnknownChannel(label)

    def to_array(self) -> np.ndarray:
        """Samples as an (n_samples, n_channels) array, channel order preserved."""
        return np.column_stack([ch.samples for ch in self.channels])

    def __eq__(self, other) -> bool:
        return isinstance(other, MultichannelRecording) and self.channels == other.channels


@dataclass(frozen=True)
class LagWindow:
    """Inclusive sample-lag range [tau_min, tau_max]; negative lags look back."""

    tau_min: int
    tau_max: int

    def __post_init__(self):
        if self.tau_min > self.tau_max:
            raise ShapeMismatch(
                f"tau_min ({self.tau_min}) must be <= tau_max ({self.tau_max})"
            )

    @property
    def n_lags(self) -> int:
        return self.tau_max - self.tau_min + 1


def normalize(x: TimeSeries) -> TimeSeries:
    """Shift and scale to zero mean and unit population variance.

    The population convention (divide by n) is used so that for two
    normalized series a, b the identity mean((a-b)^2)/2 == 1 - pearson(a, b)
    holds exactly.

    Raises
    ------
    ZeroVarianceSignal
        If the input is constant.
    """
    if len(x) < 2:
        raise ShapeMismatch("normalize needs at least 2 samples")
    mu = float(np.mean(x.samples))
    var = float(np.mean((x.samples - mu) ** 2))
    if var <= 0.0:
        raise ZeroVarianceSignal(f"signal {x.label!r} is constant")
    return x.with_samples((x.samples - mu) / np.sqrt(var))


def extract_envelope(
    audio: TimeSeries, target_rate_hz: float, compression: float = 1.0
) -> TimeSeries:
    """Temporal envelope of a signal, resampled to ``target_rate_hz``.

    Pipeline: magnitude of the analytic signal (frequency-domain Hilbert
    transform), causal 4th-order Butterworth low-pass at ``target_rate_hz/2``
    applied as cascaded biquads, clip at zero, optional power-law compression
    ``env ** compression``, then integer-factor decimation. Timestamps refer
    to the first retained sample; no fractional-delay compensation is applied.

    Parameters
    ----------
    audio : TimeSeries
        Input signal; its rate must be an integer multiple of the target and
        at least twice the target.
    target_rate_hz : float
        Output sampling rate.
    compression : float
        Power-law exponent applied to the nonnegative envelope (1.0 = linear).

    Raises
    ------
    InvalidRate
        If ``target_rate_hz`` exceeds half the input rate, or the input rate
        is not an integer multiple of the target.
    """
    if target_rate_hz <= 0:
        raise InvalidRate(f"target rate must be > 0, got {target_rate_hz}")
    if audio.rate_hz < 2.0 * target_rate_hz:
        raise InvalidRate(
            f"input rate {audio.rate_hz} Hz must be >= 2x target {target_rate_hz} Hz"
        )
    factor = audio.rate_hz / target_rate_hz
    if abs(factor - round(factor)) > 1e-9:
        raise InvalidRate(
            f"input rate {audio.rate_hz} Hz is not an integer multiple of "
            f"target {target_rate_hz} Hz"
        )
    factor = int(round(factor))

    env = np.abs(hilbert(audio.samples))
    sos = butter(4, target_rate_hz / 2.0, btype="low", fs=audio.rate_hz, output="sos")
    env = sosfilt(sos, env)
    env = np.maximum(env, 0.0)
    if compression != 1.0:
        env = env**compression
    return TimeSeries(audio.label, float(target_rate_hz), env[::factor])


def lag_valid_slice(n: int, w: LagWindow) -> slice:
    """Row range of the original series for which every lag in ``w`` is in bounds."""
    lo = max(0, -w.tau_min)
    hi = n - 1 - max(0, w.tau_max)
    if hi < lo:
        raise WindowTooLarge(
            f"window [{w.tau_min}, {w.tau_max}] leaves no valid rows for length {n}"
        )
    return slice(lo, hi + 1)


def lag_view(samples: np.ndarray, start: int, rows: int, width: int) -> np.ndarray:
    """Read-only view whose entry ``[i, ..., k]`` is ``samples[start + i + k, ...]``
    for ``i < rows`` and ``k < width``; trailing (channel) axes sit between."""
    return sliding_window_view(samples[start : start + rows + width - 1], width, axis=0)


def select_channels(r: MultichannelRecording, labels) -> MultichannelRecording:
    """Subset and reorder channels by label.

    Output channel order follows the requested order.

    Raises
    ------
    UnknownChannel
        Naming the first requested label that is absent.
    """
    by_label = {ch.label: ch for ch in r.channels}
    picked = []
    for lab in labels:
        if lab not in by_label:
            raise UnknownChannel(lab)
        picked.append(by_label[lab])
    return MultichannelRecording(channels=tuple(picked))


# ---------------------------------------------------------------------------
# CSV + JSON-sidecar recording files
# ---------------------------------------------------------------------------

def write_json(path, doc: dict) -> None:
    """Write ``doc`` as key-sorted JSON indented by one space, newline-terminated:
    the layout of every JSON file the pipeline writes."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_recording(r: MultichannelRecording, csv_path, extra_meta: dict | None = None) -> None:
    """Write one recording as CSV plus a JSON metadata sidecar.

    CSV layout: header row ``t,<label>,...``; first column is time in
    seconds, remaining columns one per channel. The sidecar (same path with
    ``.json``) carries ``rate_hz`` plus any ``extra_meta`` entries.
    """
    csv_path = Path(csv_path)
    rows = np.column_stack(
        [np.arange(r.n_samples) / r.rate_hz] + [ch.samples for ch in r.channels]
    ).tolist()
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t", *r.labels])
        # repr of a finite float never needs CSV quoting and round-trips exactly;
        # "\r\n" is csv.writer's line terminator.
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
    write_json(csv_path.with_suffix(".json"), {**(extra_meta or {}), "rate_hz": r.rate_hz})


def read_recording(csv_path) -> MultichannelRecording:
    """Read a recording written by :func:`write_recording`.

    Lines starting with ``#`` and blank lines are skipped. The sidecar must
    carry ``rate_hz``; any other key is ignored.

    Raises
    ------
    DataError
        If the CSV or its JSON sidecar is missing or malformed, including a
        header without samples, ragged rows and non-numeric values.
    """
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".json")
    if not csv_path.exists():
        raise DataError(f"recording file not found: {csv_path}")
    if not meta_path.exists():
        raise DataError(f"metadata sidecar not found: {meta_path}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if "rate_hz" not in meta:
        raise DataError(f"{meta_path}: missing metadata key 'rate_hz'")
    try:
        rate = float(meta["rate_hz"])
    except (TypeError, ValueError):
        raise DataError(f"{meta_path}: rate_hz must be a number, got {meta['rate_hz']!r}") from None
    with open(csv_path, newline="") as fh:
        header = next(
            (row for row in csv.reader(fh) if row and not row[0].startswith("#")), None
        )
        if header is None:
            raise DataError(f"{csv_path}: empty file")
        if header[0] != "t":
            raise DataError(f"{csv_path}: first column must be 't', got {header[:1]}")
        labels = header[1:]
        if not labels:
            raise DataError(f"{csv_path}: no channel columns")
        try:
            with warnings.catch_warnings():
                # a file without data rows is reported below, not as a warning
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{csv_path}: malformed data row ({exc})") from exc
    if values.shape[0] == 0:
        raise DataError(f"{csv_path}: header but no samples")
    if values.shape[1] != len(header):
        raise DataError(
            f"{csv_path}: ragged rows ({values.shape[1]} columns, header has {len(header)})"
        )
    channels = tuple(
        TimeSeries(lab, rate, values[:, j]) for j, lab in enumerate(labels, start=1)
    )
    return MultichannelRecording(channels=channels)
