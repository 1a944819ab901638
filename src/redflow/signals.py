"""Time-series containers and the signal transforms shared by the pipeline.

Everything downstream (decoding, information rates, reports) consumes the
types defined here: a single named channel (:class:`TimeSeries`), the
channels of one trial as one read-only (channels x samples) array
(:class:`MultichannelRecording`), and a lag range (:class:`LagWindow`).
All values are immutable after construction and safe for concurrent
read-only use.
"""

from __future__ import annotations

import csv
import functools
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DataError,
    InvalidRate,
    RedflowError,
    ShapeMismatch,
    UnknownChannel,
    WindowTooLarge,
    ZeroVarianceSignal,
)

#: Left-temporal electrode subset in the extended 10-20 64-channel layout,
#: used as the default channel selection for rate analysis.
LEFT_TEMPORAL_LABELS = ("FT7", "T7", "TP7", "CP5", "FC5", "C5")


def _as_samples(values, ndim: int = 1) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ShapeMismatch(f"samples must be {ndim}-D, got shape {arr.shape}")
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
        Sampling rate in samples per second, finite and > 0.
    samples : array_like
        Finite real values; stored as a read-only float64 array.
    """

    label: str
    rate_hz: float
    samples: np.ndarray

    def __post_init__(self):
        if not 0 < self.rate_hz < np.inf:
            raise InvalidRate(f"rate_hz must be a finite number > 0, got {self.rate_hz}")
        object.__setattr__(self, "samples", _as_samples(self.samples))

    def __reduce__(self):
        # unpickling re-runs the constructor: its checks and read-only copy
        return TimeSeries, (self.label, self.rate_hz, self.samples)

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
    """Aligned channels of one trial: ``samples`` is a read-only float64
    (n_channels, n_samples) array whose row c is the channel ``labels[c]``,
    all sampled at a finite ``rate_hz`` > 0. Labels must be unique. A recording
    holds only its channels; which subject, trial and stimulus it belongs
    to is the caller's to keep.
    """

    labels: tuple
    rate_hz: float
    samples: np.ndarray

    def __post_init__(self):
        if not 0 < self.rate_hz < np.inf:
            raise InvalidRate(f"rate_hz must be a finite number > 0, got {self.rate_hz}")
        samples = _as_samples(self.samples, ndim=2)
        labels = tuple(self.labels)
        if len(labels) != samples.shape[0]:
            raise ShapeMismatch(f"{len(labels)} labels for {samples.shape[0]} channel rows")
        if not labels:
            raise ShapeMismatch("recording needs at least one channel")
        if len(set(labels)) != len(labels):
            raise ShapeMismatch(f"channel labels must be unique, got {list(labels)}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "samples", samples)

    def __reduce__(self):
        # unpickling re-runs the constructor: its checks and read-only copy
        return MultichannelRecording, (self.labels, self.rate_hz, self.samples)

    @property
    def channels(self) -> tuple:
        """Each row as a :class:`TimeSeries`, built on each access."""
        return tuple(TimeSeries(lab, self.rate_hz, row) for lab, row in zip(self.labels, self.samples))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def channel(self, label: str) -> TimeSeries:
        return select_channels(self, (label,)).channels[0]

    def to_array(self) -> np.ndarray:
        """A fresh C-ordered (n_samples, n_channels) copy, channel order preserved."""
        return self.samples.T.copy()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultichannelRecording)
            and self.labels == other.labels
            and self.rate_hz == other.rate_hz
            and np.array_equal(self.samples, other.samples)
        )


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


def normalize(x: TimeSeries | MultichannelRecording):
    """Shift and scale a :class:`TimeSeries`, or each channel of a
    :class:`MultichannelRecording`, to zero mean and unit population variance.

    The population convention (divide by n) is used so that for two
    normalized series a, b the identity mean((a-b)^2)/2 == 1 - pearson(a, b)
    holds exactly. A recording's channel comes out bit-identical to it
    normalized alone: both reduce along the last (contiguous) axis.

    Raises
    ------
    ZeroVarianceSignal
        If the input, or a channel of it, is constant.
    """
    if x.samples.shape[-1] < 2:
        raise ShapeMismatch("normalize needs at least 2 samples")
    mu = np.mean(x.samples, axis=-1, keepdims=True)
    var = np.mean((x.samples - mu) ** 2, axis=-1, keepdims=True)
    constant = (var <= 0.0).reshape(-1)
    if constant.any():
        labels = x.labels if isinstance(x, MultichannelRecording) else (x.label,)
        raise ZeroVarianceSignal(f"signal {labels[int(np.argmax(constant))]!r} is constant")
    return replace(x, samples=(x.samples - mu) / np.sqrt(var))


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
    labels = tuple(labels)
    for lab in labels:
        if lab not in r.labels:
            raise UnknownChannel(lab)
    return replace(r, labels=labels, samples=r.samples[[r.labels.index(lab) for lab in labels]])


# ---------------------------------------------------------------------------
# CSV + JSON-sidecar recording files
# ---------------------------------------------------------------------------

def write_json(path, doc: dict) -> None:
    """Write ``doc`` as key-sorted JSON indented by one space, newline-terminated:
    the layout of every JSON file the pipeline writes."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path) -> dict:
    """Read a JSON file whose top level is an object, as :func:`write_json`
    writes it: the reader of every JSON input file. A file that cannot be
    read, does not parse or holds another top level is a DataError naming it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top level must be a JSON object, got {type(doc).__name__}")
    return doc


def json_number(value) -> float:
    """A number read from a JSON file, as a float. JSON numbers parse to int
    or float; anything else, a string or a bool included, is a TypeError, so
    ``"64"`` or ``true`` never reads as a number. Readers report it as a
    DataError naming the file."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


@functools.lru_cache(maxsize=8)
def _time_column(n_samples: int, rate_hz: float) -> tuple:
    """``repr`` of each sample's time in seconds, ``i / rate_hz``: the first
    CSV column, the same for every file of a given length and rate."""
    return tuple(map(repr, (np.arange(n_samples) / rate_hz).tolist()))


def write_recording(r: MultichannelRecording, csv_path, extra_meta: dict | None = None) -> None:
    """Write one recording as CSV plus a JSON metadata sidecar.

    CSV layout: header row ``t,<label>,...``; first column is time in
    seconds, remaining columns one per channel. The sidecar (same path with
    ``.json``) carries ``rate_hz`` plus any ``extra_meta`` entries.
    """
    csv_path = Path(csv_path)
    times = _time_column(r.n_samples, r.rate_hz)
    columns = [map(repr, channel) for channel in r.samples.tolist()]
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerow(["t", *r.labels])
        # repr of a finite float never needs CSV quoting and round-trips exactly;
        # "\r\n" is csv.writer's line terminator. Rows are zipped from the
        # columns' repr passes in C; the final "" ends the last row, if any.
        fh.write("\r\n".join([*map(",".join, zip(times, *columns)), ""]))
    write_json(csv_path.with_suffix(".json"), {**(extra_meta or {}), "rate_hz": r.rate_hz})


def read_recording(csv_path) -> MultichannelRecording:
    """Read a recording written by :func:`write_recording`.

    Lines starting with ``#`` and blank lines are skipped. The sidecar must
    carry ``rate_hz``, a JSON number; any other key is ignored.

    Raises
    ------
    DataError
        If the CSV or its JSON sidecar is missing or malformed, including a
        header without samples, ragged rows, non-numeric or non-finite values
        and repeated labels.
    """
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".json")
    if not csv_path.exists():
        raise DataError(f"recording file not found: {csv_path}")
    meta = read_json(meta_path)
    try:
        rate = json_number(meta["rate_hz"])
    except (KeyError, TypeError, ValueError, OverflowError):
        rate = float("nan")
    if not 0 < rate < np.inf:
        raise DataError(
            f"{meta_path}: rate_hz must be a finite number > 0, got {meta.get('rate_hz')!r}"
        )
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
    try:
        return MultichannelRecording(labels, rate, values[:, 1:].T)
    except RedflowError as exc:
        raise DataError(f"{csv_path}: {exc}") from exc
