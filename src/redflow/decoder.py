"""Backward stimulus reconstruction.

A linear decoder maps lagged multichannel responses to the stimulus: the
reconstruction at time t is the sum over channels c and lags tau of
``r(t + tau, c) * g(tau, c)``. Training solves the ridge normal equations
``(R'R + lambda I) g = R' s`` on the stacked lagged design matrix R, whose
columns are ordered channel-major, lag-minor (all lags of channel 0, then
all lags of channel 1, ...). No intercept is fit; both sides are expected
zero-mean (normalize first).

The solve goes through the eigendecomposition R'R = V diag(e) V':
g = V diag(1 / (e + lambda)) V'R's, so one decomposition serves every
lambda and every target. A trial's statistics hold one target per stimulus
(:func:`trial_stats`), and :func:`fit_decoders` solves all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
        _check_lambdas(self.lam)
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


def _check_lambdas(*lambdas) -> None:
    for lam in lambdas:
        if not (np.isfinite(lam) and lam >= 0.0):
            raise ShapeMismatch(f"lambda must be a finite number >= 0, got {lam!r}")


def _ridge(eigvals: np.ndarray, eigvecs: np.ndarray, proj: np.ndarray, lam: float) -> np.ndarray:
    """``V diag(1 / (e + lam)) proj``: given ``gram = V diag(e) V'`` and
    ``proj = V'b``, the solution of ``(gram + lam I) g = b``, per Gram of a
    stack. Raises SingularSystem when lam == 0 and a Gram is rank-deficient
    beyond tolerance, or when lam > 0 but e_min + lam <= d eps e_max (lam
    within the eigenvalues' rounding, as at an exact rank deficiency).
    """
    low, high = eigvals[..., :1], eigvals[..., -1:]
    if lam == 0.0 and np.any((high <= 0.0) | (low < _RANK_RTOL * high)):
        raise SingularSystem(
            "normal equations are rank-deficient at lambda=0 "
            f"(relative conditioning {np.min(low / np.maximum(high, 1e-300)):.2e})"
        )
    if lam > 0.0 and np.any(low + lam <= eigvals.shape[-1] * np.finfo(float).eps * high):
        raise SingularSystem(f"normal equations are not positive definite at lambda={lam!r}")
    return (eigvecs @ (proj / (eigvals + lam))[..., None])[..., 0]


def _pooled_decoders(gram, rhs, lambdas, w: LagWindow, channel_labels, rate_hz) -> list:
    """One decoder per row of ``rhs`` at its lambda, from one ``eigh(gram)``."""
    eigvals, eigvecs = np.linalg.eigh(gram)
    return [Decoder(_ridge(eigvals, eigvecs, b @ eigvecs, lam).reshape(len(channel_labels), w.n_lags).T,
                    w, float(lam), channel_labels, rate_hz) for b, lam in zip(rhs, lambdas)]


def train(r: MultichannelRecording, s: TimeSeries, w: LagWindow, lam: float) -> Decoder:
    """Fit the ridge decoder for one recording/stimulus pair.

    The stimulus is truncated to the design's valid rows before solving.

    Raises
    ------
    ShapeMismatch
        If ``lam`` is not a finite number >= 0, or if recording and
        stimulus disagree in rate or length.
    SingularSystem
        If ``lam == 0`` and the normal equations are rank-deficient, or if
        ``lam`` is too small to make them safely positive definite.
    """
    _check_lambdas(lam)
    st = trial_stats(r, [s], w)
    return _pooled_decoders(st.gram, st.rhs, [float(lam)], w, r.labels, r.rate_hz)[0]


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
    score any decoder g on the trial by Pearson correlation. Stacked, each
    field with a leading trial axis, they score one decoder per trial.
    """

    gram: np.ndarray
    col_sums: np.ndarray
    n: int
    rhs: np.ndarray
    target_sum: np.ndarray
    target_css: np.ndarray


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
        np.array([t.sum() for t in targets]),
        np.array([np.dot(c, c) for c in centred]),
    )


def _held_out_rho(st: TrialStats, k: int, g: np.ndarray):
    """Pearson correlation of the prediction D g with target k, from the
    trial's statistics: sum(p) = col_sums.g, sum(p^2) = g'Gg, sum(p y) = g'rhs,
    and NaN where the target or the prediction is constant. Stacked
    statistics score a stack of g, one per trial."""
    sum_p = np.sum(st.col_sums * g, axis=-1)
    css_p = np.sum(g * (st.gram @ g[..., None])[..., 0], axis=-1) - sum_p * sum_p / st.n
    cross = np.sum(g * st.rhs[..., k, :], axis=-1) - sum_p * st.target_sum[..., k] / st.n
    css = css_p * st.target_css[..., k]
    return cross / np.sqrt(np.where(css > 0.0, css, np.nan))


def select_best_lambda(lambdas, mean_rho) -> float:
    """Highest mean correlation wins; exact ties go to the larger lambda."""
    best_idx = max(range(len(lambdas)), key=lambda i: (mean_rho[i], lambdas[i]))
    return lambdas[best_idx]


def fit_decoders(stats, lambdas, w: LagWindow, channel_labels, rate_hz: float) -> list:
    """Cross-validated ridge decoder per target of ``stats`` (one
    :class:`TrialStats` per trial), as ``(Decoder, per-lambda mean rho)``
    pairs in target order.

    Leave-one-trial-out: one eigendecomposition of each fold's Gram
    ``gram_total - gram_i`` serves every lambda and target (:func:`_ridge`),
    each fit scored by the held-out trial's Pearson correlation from its
    statistics alone. Each target is then fit on all trials at its
    :func:`select_best_lambda`, through one eigendecomposition of
    ``gram_total``. Fewer than 2 trials raise InsufficientTrials; a lambda
    that is not a finite number >= 0 raises ShapeMismatch.
    """
    stats = list(stats)
    lambdas = [float(v) for v in lambdas]
    if len(stats) < 2:
        raise InsufficientTrials(f"cross-validation needs >= 2 trials, got {len(stats)}")
    if not lambdas:
        raise ShapeMismatch("empty lambda grid")
    _check_lambdas(*lambdas)
    held_out = TrialStats(*(np.array([getattr(st, f.name) for st in stats]) for f in fields(TrialStats)))
    gram_total, rhs_total = held_out.gram.sum(axis=0), held_out.rhs.sum(axis=0)
    # fold i leaves trial i out. Each target is projected, solved and scored
    # on its own, so its fit does not depend on which others share the system
    eigvals, eigvecs = np.linalg.eigh(gram_total - held_out.gram)
    projs = [((b - held_out.rhs[:, k])[:, None] @ eigvecs)[:, 0] for k, b in enumerate(rhs_total)]
    curves = [[] for _ in projs]
    for lam in lambdas:
        rhos = [_held_out_rho(held_out, k, _ridge(eigvals, eigvecs, proj, lam)) for k, proj in enumerate(projs)]
        undefined = np.argwhere(np.isnan(np.transpose(rhos)))  # (fold, target): the first in fold order
        if len(undefined):
            error = ZeroVarianceSignal("pearson undefined for a constant signal")
            error.target = int(undefined[0, 1])
            raise error
        for curve, rho in zip(curves, rhos):
            curve.append(float(np.mean(rho)))
    chosen = [select_best_lambda(lambdas, curve) for curve in curves]
    return list(zip(_pooled_decoders(gram_total, rhs_total, chosen, w, channel_labels, rate_hz), curves))


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
