"""Backward stimulus reconstruction.

A linear decoder maps lagged multichannel responses to the stimulus: the
reconstruction at time t is the sum over channels c and lags tau of
``r(t + tau, c) * g(tau, c)``. Training solves the ridge normal equations
``(R'R + lambda I) g = R' s`` on the stacked lagged design matrix R, whose
columns are ordered channel-major, lag-minor (all lags of channel 0, then
all lags of channel 1, ...). No intercept is fit; both sides are expected
zero-mean (normalize first).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import (
    ChannelOrderMismatch,
    DataError,
    InsufficientTrials,
    ShapeMismatch,
    SingularSystem,
    ZeroVarianceSignal,
)
from .signals import LagWindow, MultichannelRecording, TimeSeries, lag_valid_slice, lag_view, write_json

DECODER_FORMAT_VERSION = 1

#: Relative rank tolerance for the unregularized normal equations.
_RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class Decoder:
    """Trained backward model.

    ``weights[i, c]`` is the coefficient for lag ``lag_window.tau_min + i``
    of channel ``channel_labels[c]``.
    """

    weights: np.ndarray
    lag_window: LagWindow
    lam: float
    channel_labels: tuple
    train_rate_hz: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.lag_window.n_lags, len(self.channel_labels)):
            raise ShapeMismatch(
                f"weights shape {w.shape} != (n_lags={self.lag_window.n_lags}, "
                f"n_channels={len(self.channel_labels)})"
            )
        if not np.all(np.isfinite(w)):
            raise ShapeMismatch("weights must be finite")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "channel_labels", tuple(self.channel_labels))

    @property
    def flat_weights(self) -> np.ndarray:
        """Weights in design-column order (channel-major, lag-minor)."""
        return self.weights.T.reshape(-1)


def build_design(r: MultichannelRecording, w: LagWindow) -> np.ndarray:
    """Stacked lagged design matrix, channel-major lag-minor column order."""
    sl = lag_valid_slice(r.n_samples, w)
    view = lag_view(r.to_array(), sl.start + w.tau_min, sl.stop - sl.start, w.n_lags)
    return view.reshape(view.shape[0], -1)


def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Cholesky solve of (gram + lam I) g = rhs.

    Raises SingularSystem when lam == 0 and the Gram matrix is rank-deficient
    beyond tolerance, or when the factorization fails (a lam too small to
    lift an exact rank deficiency). No jitter is ever added.
    """
    if lam < 0:
        raise ShapeMismatch(f"lambda must be >= 0, got {lam}")
    if lam == 0.0:
        eigs = np.linalg.eigvalsh(gram)
        if eigs[-1] <= 0.0 or eigs[0] < _RANK_RTOL * eigs[-1]:
            raise SingularSystem(
                "normal equations are rank-deficient at lambda=0 "
                f"(relative conditioning {eigs[0] / max(eigs[-1], 1e-300):.2e})"
            )
    try:
        cho = scipy.linalg.cho_factor(
            gram + lam * np.eye(gram.shape[0]), lower=True, check_finite=False
        )
    except scipy.linalg.LinAlgError:
        raise SingularSystem(
            f"normal equations are not positive definite at lambda={lam!r}"
        ) from None
    return scipy.linalg.cho_solve(cho, rhs, check_finite=False)


def train(
    r: MultichannelRecording, s: TimeSeries, w: LagWindow, lam: float
) -> Decoder:
    """Fit the ridge decoder for one recording/stimulus pair.

    The stimulus is truncated to the design's valid rows before solving.

    Raises
    ------
    ShapeMismatch
        If recording and stimulus disagree in rate or length.
    SingularSystem
        If ``lam == 0`` and the normal equations are rank-deficient, or if
        ``lam`` is too small for the factorization to succeed.
    """
    return train_pooled_stats(trial_stats(r, [s], w), w, lam, r.labels, r.rate_hz)


def reconstruct(d: Decoder, r: MultichannelRecording) -> TimeSeries:
    """Apply a decoder to a recording.

    Returns the raw (unnormalized) reconstruction on the valid index set of
    the lag window; normalize before correlating or estimating rates.

    Raises
    ------
    ChannelOrderMismatch
        If the recording's labels differ from the decoder's in content or order.
    ShapeMismatch
        If the rates differ.
    """
    if r.labels != d.channel_labels:
        raise ChannelOrderMismatch(
            f"recording channels {r.labels} != decoder channels {d.channel_labels}"
        )
    if r.rate_hz != d.train_rate_hz:
        raise ShapeMismatch(f"recording rate {r.rate_hz} != decoder rate {d.train_rate_hz}")
    design = build_design(r, d.lag_window)
    return TimeSeries("reconstruction", r.rate_hz, design @ d.flat_weights)


def pearson(a: TimeSeries, b: TimeSeries) -> float:
    """Empirical Pearson correlation of two equal-length series.

    Raises
    ------
    ZeroVarianceSignal
        If either input is constant.
    """
    if len(a) != len(b):
        raise ShapeMismatch(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ShapeMismatch("need at least 2 samples")
    da = a.samples - a.samples.mean()
    db = b.samples - b.samples.mean()
    na = float(np.sqrt(np.dot(da, da)))
    nb = float(np.sqrt(np.dot(db, db)))
    if na == 0.0 or nb == 0.0:
        raise ZeroVarianceSignal("pearson undefined for a constant signal")
    return float(np.dot(da, db) / (na * nb))


@dataclass(frozen=True, eq=False)
class TrialStats:
    """Sufficient statistics of one trial's design D and target y.

    ``gram`` is D'D, ``rhs`` is D'y, ``col_sums`` the column sums of D,
    ``target_sum`` the sum of y, ``target_css`` its centred sum of squares
    and ``n`` the number of rows. They suffice both to accumulate the normal
    equations and to score any decoder g on the trial by Pearson correlation.
    """

    gram: np.ndarray
    rhs: np.ndarray
    col_sums: np.ndarray
    target_sum: float
    target_css: float
    n: int


def trial_stats(r: MultichannelRecording, stimuli, w: LagWindow) -> list:
    """One :class:`TrialStats` per stimulus, on one shared design.

    The design, its Gram and its column sums are built once for the
    recording; each stimulus is truncated to the design's valid rows.

    Raises
    ------
    ShapeMismatch
        If a stimulus disagrees with the recording in rate or length.
    """
    for s in stimuli:
        if s.rate_hz != r.rate_hz:
            raise ShapeMismatch(f"stimulus rate {s.rate_hz} != recording rate {r.rate_hz}")
        if len(s) != r.n_samples:
            raise ShapeMismatch(f"stimulus length {len(s)} != recording length {r.n_samples}")
    design = build_design(r, w)
    gram = design.T @ design
    col_sums = design.sum(axis=0)
    valid = lag_valid_slice(r.n_samples, w)
    out = []
    for s in stimuli:
        target = s.samples[valid]
        centred = target - target.mean()
        out.append(TrialStats(
            gram, design.T @ target, col_sums,
            float(target.sum()), float(np.dot(centred, centred)), target.size,
        ))
    return out


def _held_out_rho(st: TrialStats, g: np.ndarray) -> float:
    """Pearson correlation of the prediction D g with y, from the trial's
    statistics: sum(p) = col_sums.g, sum(p^2) = g'Gg, sum(p y) = g'rhs."""
    sum_p = float(st.col_sums @ g)
    css_p = float(g @ st.gram @ g) - sum_p * sum_p / st.n
    cross = float(g @ st.rhs) - sum_p * st.target_sum / st.n
    if css_p <= 0.0 or st.target_css == 0.0:
        raise ZeroVarianceSignal("pearson undefined for a constant signal")
    return cross / float(np.sqrt(css_p * st.target_css))


def select_best_lambda(lambdas, mean_rho) -> float:
    """Highest mean correlation wins; exact ties go to the larger lambda."""
    best_idx = max(range(len(lambdas)), key=lambda i: (mean_rho[i], lambdas[i]))
    return lambdas[best_idx]


def cross_validate_stats(stats, lambdas) -> tuple[float, list]:
    """Leave-one-trial-out ridge selection on per-trial statistics.

    Each fold solves the normal equations of the other trials and scores the
    held-out trial from its own statistics; no design matrix is needed.
    """
    stats = list(stats)
    lambdas = [float(v) for v in lambdas]
    if len(stats) < 2:
        raise InsufficientTrials(f"cross-validation needs >= 2 trials, got {len(stats)}")
    if not lambdas:
        raise ShapeMismatch("empty lambda grid")
    gram_total = sum(st.gram for st in stats)
    rhs_total = sum(st.rhs for st in stats)
    mean_rho = []
    for lam in lambdas:
        rhos = [
            _held_out_rho(st, _solve_normal_equations(gram_total - st.gram, rhs_total - st.rhs, lam))
            for st in stats
        ]
        mean_rho.append(float(np.mean(rhos)))
    return select_best_lambda(lambdas, mean_rho), mean_rho


def cross_validate(trials, w: LagWindow, lambdas) -> tuple[float, list]:
    """Leave-one-trial-out selection of the ridge parameter.

    For each candidate lambda, decoders are trained on all-but-one trial
    (by accumulating the per-trial normal equations) and scored by Pearson
    correlation on the held-out trial. Returns the lambda with the highest
    mean held-out correlation (ties toward the larger lambda) and the
    per-lambda means in input order.

    Raises
    ------
    InsufficientTrials
        If fewer than 2 trials are supplied.
    """
    return cross_validate_stats([trial_stats(r, [s], w)[0] for r, s in trials], lambdas)


def train_pooled_stats(
    stats, w: LagWindow, lam: float, channel_labels, rate_hz: float
) -> Decoder:
    """Fit one decoder on accumulated per-trial normal equations."""
    stats = list(stats)
    if not stats:
        raise InsufficientTrials("no trials to train on")
    gram = sum(st.gram for st in stats)
    rhs = sum(st.rhs for st in stats)
    flat = _solve_normal_equations(gram, rhs, lam)
    weights = flat.reshape(len(channel_labels), w.n_lags).T
    return Decoder(
        weights=weights,
        lag_window=w,
        lam=float(lam),
        channel_labels=tuple(channel_labels),
        train_rate_hz=rate_hz,
    )


def save_decoder(d: Decoder, path, extra_meta: dict | None = None) -> None:
    """Serialize a decoder to JSON.

    Weights are stored row-major, rows = lags (tau_min..tau_max), columns =
    channels in ``channel_labels`` order.
    """
    doc = {
        "format_version": DECODER_FORMAT_VERSION,
        "weight_layout": "rows=lags tau_min..tau_max, cols=channels",
        "weights": [[float(v) for v in row] for row in d.weights],
        "tau_min": d.lag_window.tau_min,
        "tau_max": d.lag_window.tau_max,
        "lambda": d.lam,
        "channel_labels": list(d.channel_labels),
        "rate_hz": d.train_rate_hz,
    }
    if extra_meta:
        doc["meta"] = extra_meta
    write_json(path, doc)


def load_decoder(path) -> Decoder:
    """Read a decoder written by :func:`save_decoder`."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"decoder file not found: {path}")
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != DECODER_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported decoder format version {doc.get('format_version')!r}"
        )
    try:
        return Decoder(
            weights=np.array(doc["weights"], dtype=np.float64),
            lag_window=LagWindow(int(doc["tau_min"]), int(doc["tau_max"])),
            lam=float(doc["lambda"]),
            channel_labels=tuple(doc["channel_labels"]),
            train_rate_hz=float(doc["rate_hz"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed decoder ({type(exc).__name__}: {exc})") from None
