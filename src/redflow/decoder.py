"""Backward stimulus reconstruction.

A linear decoder maps lagged multichannel responses to the stimulus: the
reconstruction at time t is the sum over channels c and lags tau of
``r(t + tau, c) * g(tau, c)``. Training solves the ridge normal equations
``(R'R + lambda I) g = R' s`` on the stacked lagged design matrix R, whose
columns are ordered channel-major, lag-minor (all lags of channel 0, then
all lags of channel 1, ...). No intercept is fit; both sides are expected
zero-mean (normalize first).

A trial's statistics hold one target per stimulus (:func:`trial_stats`), and
:func:`fit_decoders` solves every target of each system it builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelOrderMismatch,
    DataError,
    InsufficientTrials,
    InvalidRate,
    RedflowError,
    ShapeMismatch,
    SingularSystem,
    ZeroVarianceSignal,
)
from .signals import (LagWindow, MultichannelRecording, TimeSeries, json_number, lag_valid_slice,
                      lag_view, read_json, write_json)

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
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ShapeMismatch(f"lambda must be a finite number >= 0, got {self.lam!r}")
        if not (np.isfinite(self.train_rate_hz) and self.train_rate_hz > 0.0):
            raise InvalidRate(f"rate_hz must be a finite number > 0, got {self.train_rate_hz!r}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "channel_labels", tuple(self.channel_labels))

    def __reduce__(self):
        # unpickling re-runs the constructor: its checks and read-only copy
        return Decoder, (
            self.weights, self.lag_window, self.lam, self.channel_labels, self.train_rate_hz
        )

    @property
    def flat_weights(self) -> np.ndarray:
        """Weights in design-column order (channel-major, lag-minor)."""
        return self.weights.T.reshape(-1)


def build_design(r: MultichannelRecording, w: LagWindow) -> np.ndarray:
    """Stacked lagged design matrix, channel-major lag-minor column order."""
    sl = lag_valid_slice(r.n_samples, w)
    view = lag_view(r.to_array(), sl.start + w.tau_min, sl.stop - sl.start, w.n_lags)
    return view.reshape(view.shape[0], -1)


def _factor(gram: np.ndarray, lam: float) -> np.ndarray:
    """The system gram + lam I (one per matrix of a stack of Grams), once a
    Cholesky factorization has shown it positive definite; ``np.linalg.solve``
    solves it.

    Raises SingularSystem when lam == 0 and a Gram matrix is rank-deficient
    beyond tolerance, or when a factorization fails (a lam too small to
    lift an exact rank deficiency). No jitter is ever added.
    """
    if lam < 0:
        raise ShapeMismatch(f"lambda must be >= 0, got {lam}")
    if lam == 0.0:
        eigs = np.linalg.eigvalsh(gram)
        low, high = eigs[..., 0], eigs[..., -1]
        if np.any((high <= 0.0) | (low < _RANK_RTOL * high)):
            raise SingularSystem(
                "normal equations are rank-deficient at lambda=0 "
                f"(relative conditioning {np.min(low / np.maximum(high, 1e-300)):.2e})"
            )
    system = gram + lam * np.eye(gram.shape[-1])
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        raise SingularSystem(f"normal equations are not positive definite at lambda={lam!r}") from None
    return system


def _decoder(system, rhs: np.ndarray, w: LagWindow, lam: float, channel_labels, rate_hz) -> Decoder:
    """The decoder whose design-order weights solve ``system`` for ``rhs``."""
    flat = np.linalg.solve(system, rhs)
    return Decoder(flat.reshape(len(channel_labels), w.n_lags).T, w, float(lam), channel_labels, rate_hz)


def train(r: MultichannelRecording, s: TimeSeries, w: LagWindow, lam: float) -> Decoder:
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
    st = trial_stats(r, [s], w)
    return _decoder(_factor(st.gram, lam), st.rhs[0], w, lam, r.labels, r.rate_hz)


def reconstruct(d: Decoder, r: MultichannelRecording) -> TimeSeries:
    """Apply a decoder to a recording.

    Returns the raw (unnormalized) reconstruction on the valid index set of
    the lag window; normalize before correlating or estimating rates. It
    equals ``build_design(r, d.lag_window) @ d.flat_weights`` up to the
    order of the sums, without building the design.

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
    # the design's product summed one lag at a time: lag tau_min + k reads
    # the recording from row start + k
    sl = lag_valid_slice(r.n_samples, d.lag_window)
    x, start, rows = r.to_array(), sl.start + d.lag_window.tau_min, sl.stop - sl.start
    out = np.zeros(rows)
    for k, weights in enumerate(d.weights):
        out += x[start + k : start + k + rows] @ weights
    return TimeSeries("reconstruction", r.rate_hz, out)


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


def check_stimulus(r: MultichannelRecording, s: TimeSeries) -> None:
    """Refuse a stimulus whose rate or length differs from the recording's."""
    if s.rate_hz != r.rate_hz:
        raise ShapeMismatch(f"stimulus rate {s.rate_hz} != recording rate {r.rate_hz}")
    if len(s) != r.n_samples:
        raise ShapeMismatch(f"stimulus length {len(s)} != recording length {r.n_samples}")


@dataclass(frozen=True, eq=False)
class TrialStats:
    """Sufficient statistics of one trial's design D and its targets y_k.

    ``gram`` is D'D, ``col_sums`` the column sums of D and ``n`` the number
    of rows, shared by every target. Row k of ``rhs`` is D'y_k,
    ``target_sum[k]`` the sum of y_k and ``target_css[k]`` its centred sum
    of squares. They suffice both to accumulate the normal equations and to
    score any decoder g on the trial by Pearson correlation.
    """

    gram: np.ndarray
    col_sums: np.ndarray
    n: int
    rhs: np.ndarray
    target_sum: tuple
    target_css: tuple


def trial_stats(r: MultichannelRecording, stimuli, w: LagWindow) -> TrialStats:
    """The :class:`TrialStats` of one recording, with one target per stimulus.

    The design, its Gram and its column sums are built once for the
    recording; each stimulus is truncated to the design's valid rows.

    Raises
    ------
    ShapeMismatch
        If a stimulus disagrees with the recording in rate or length.
    """
    for s in stimuli:
        check_stimulus(r, s)
    design = build_design(r, w)
    valid = lag_valid_slice(r.n_samples, w)
    targets = [s.samples[valid] for s in stimuli]
    centred = [t - t.mean() for t in targets]
    return TrialStats(
        design.T @ design, design.sum(axis=0), design.shape[0],
        np.array([design.T @ t for t in targets]),
        tuple(float(t.sum()) for t in targets),
        tuple(float(np.dot(c, c)) for c in centred),
    )


def _held_out_rho(st: TrialStats, k: int, g: np.ndarray) -> float:
    """Pearson correlation of the prediction D g with target k, from the
    trial's statistics: sum(p) = col_sums.g, sum(p^2) = g'Gg, sum(p y) = g'rhs.
    A constant target or prediction raises ZeroVarianceSignal with its
    ``target`` attribute set to k."""
    sum_p = float(st.col_sums @ g)
    css_p = float(g @ st.gram @ g) - sum_p * sum_p / st.n
    cross = float(g @ st.rhs[k]) - sum_p * st.target_sum[k] / st.n
    if css_p <= 0.0 or st.target_css[k] == 0.0:
        error = ZeroVarianceSignal("pearson undefined for a constant signal")
        error.target = k
        raise error
    return cross / float(np.sqrt(css_p * st.target_css[k]))


def select_best_lambda(lambdas, mean_rho) -> float:
    """Highest mean correlation wins; exact ties go to the larger lambda."""
    best_idx = max(range(len(lambdas)), key=lambda i: (mean_rho[i], lambdas[i]))
    return lambdas[best_idx]


def fit_decoders(stats, lambdas, w: LagWindow, channel_labels, rate_hz: float) -> list:
    """Cross-validated ridge decoder per target of ``stats`` (one
    :class:`TrialStats` per trial), as ``(Decoder, per-lambda mean rho)``
    pairs in target order.

    Leave-one-trial-out: each (fold, lambda) system ``gram_total - gram_i +
    lambda I`` is checked once (:func:`_factor`, one lambda's folds as one
    stack) and solved for each target on its own, scored by the held-out
    trial's Pearson correlation from its statistics alone. A target is fit
    on all trials at its :func:`select_best_lambda`, one system per distinct
    lambda. Fewer than 2 trials raise InsufficientTrials.
    """
    stats = list(stats)
    lambdas = [float(v) for v in lambdas]
    if len(stats) < 2:
        raise InsufficientTrials(f"cross-validation needs >= 2 trials, got {len(stats)}")
    if not lambdas:
        raise ShapeMismatch("empty lambda grid")
    gram_total = sum(st.gram for st in stats)
    rhs_total = sum(st.rhs for st in stats)
    # fold i leaves trial i out. A solve for two right-hand sides rounds
    # differently from two solves for one, so each target is solved alone:
    # its fit does not depend on which others share the system
    fold_grams = np.stack([gram_total - st.gram for st in stats])
    fold_rhs = rhs_total - np.stack([st.rhs for st in stats])
    curves = [[] for _ in rhs_total]
    for lam in lambdas:
        systems = _factor(fold_grams, lam)
        weights = [np.linalg.solve(systems, fold_rhs[:, k, :, None])[..., 0] for k in range(len(curves))]
        folds = [[_held_out_rho(st, k, g[i]) for k, g in enumerate(weights)] for i, st in enumerate(stats)]
        for curve, rhos in zip(curves, zip(*folds)):
            curve.append(float(np.mean(rhos)))
    pooled = {}
    out = []
    for rhs, curve in zip(rhs_total, curves):
        lam = select_best_lambda(lambdas, curve)
        if lam not in pooled:
            pooled[lam] = _factor(gram_total, lam)
        out.append((_decoder(pooled[lam], rhs, w, lam, channel_labels, rate_hz), curve))
    return out


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
    return decoder_from_doc(read_json(path), path)


def decoder_from_doc(doc: dict, path) -> Decoder:
    """The decoder of a parsed :func:`save_decoder` document read from ``path``."""
    if doc.get("format_version") != DECODER_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported decoder format version {doc.get('format_version')!r}"
        )
    try:
        taus = doc["tau_min"], doc["tau_max"]
        if any(type(t) is not int for t in taus):
            raise TypeError(f"tau_min and tau_max must be integers, got {list(taus)}")
        return Decoder(
            weights=[[json_number(v) for v in row] for row in doc["weights"]],
            lag_window=LagWindow(*taus),
            lam=json_number(doc["lambda"]),
            channel_labels=tuple(doc["channel_labels"]),
            train_rate_hz=json_number(doc["rate_hz"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError, RedflowError) as exc:
        raise DataError(f"{path}: malformed decoder ({type(exc).__name__}: {exc})") from None
