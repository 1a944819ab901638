"""Gaussian (linear) estimators of mutual information, conditional mutual
information, and transfer entropy with finite history embedding.

All quantities are plug-in estimates in bits, computed from empirical
covariances under a jointly Gaussian model. They are exact for linear
Gaussian processes and first-order approximations otherwise. Estimates are
invariant to per-variable invertible affine maps and clamped at zero (the
population quantity is nonnegative; the clamp only absorbs rounding).

Only pairwise (per-channel) conditioning is exposed: a target that is a
deterministic function of several sources jointly is handled by estimating
one source at a time, which keeps every covariance nondegenerate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DegenerateCovariance,
    SeriesTooShort,
    ShapeMismatch,
    TooFewSamples,
)
from .signals import TimeSeries, lag_view

LN2 = math.log(2.0)

#: Relative eigenvalue floor below which a covariance is treated as
#: rank-deficient (the Gaussian information quantity diverges).
_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class EmbedSpec:
    """Finite history embedding for transfer entropy.

    ``source_history`` past samples of the source, ending ``delay`` samples
    before the present; ``target_history`` past samples of the target,
    ending one sample before the present. ``delay >= 1`` keeps the source
    block strictly in the past.
    """

    source_history: int = 16
    target_history: int = 16
    delay: int = 1

    def __post_init__(self):
        if self.source_history < 1:
            raise ShapeMismatch("source_history must be >= 1")
        if self.target_history < 1:
            raise ShapeMismatch("target_history must be >= 1")
        if self.delay < 1:
            raise ShapeMismatch("delay must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CovEstimate:
    """Empirical covariance that passed the rank check."""

    matrix: np.ndarray
    n_samples: int


def estimate_covariance(data: np.ndarray) -> CovEstimate:
    """Maximum-likelihood covariance (divide by n) of row-sample data,
    symmetrized.

    Raises
    ------
    DegenerateCovariance
        If the covariance is numerically rank-deficient (a deterministic
        linear dependence among columns).
    """
    n = data.shape[0]
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / n
    cov = 0.5 * (cov + cov.T)
    _check_rank(cov[None], ("the data",))
    return CovEstimate(matrix=cov, n_samples=n)


def _check_rank(covs: np.ndarray, names) -> None:
    """Reject a (k, d, d) stack if a matrix has lambda_min < _RANK_RTOL * lambda_max,
    naming the first; past this check, its Cholesky factorisation succeeds."""
    eigs = np.linalg.eigvalsh(covs)
    bad = (eigs[:, -1] <= 0.0) | (eigs[:, 0] < _RANK_RTOL * eigs[:, -1])
    if bad.any():
        raise DegenerateCovariance(
            f"covariance of {names[int(np.argmax(bad))]} is numerically rank-deficient; "
            "the Gaussian information quantity diverges (deterministic dependence?)"
        )


def _cmi_bits(covs: np.ndarray, dx: int, dy: int, names) -> np.ndarray:
    """I(X; Y | C) in bits, clamped at zero, for each rank-checked covariance
    of a (k, dim, dim) stack in [C, X, Y] column order.

    The last dy rows of the Cholesky factor L hold both residual covariances:
    Cov(Y | C, X) = L_YY L_YY' and Cov(Y | C) = L_YX L_YX' + L_YY L_YY', so
    I = 0.5 log2(det Cov(Y | C) / det Cov(Y | C, X)) needs one more dy x dy
    factorisation and no difference of large log-determinants.
    """
    try:
        rows = np.linalg.cholesky(covs)[:, -dy:]
        l_yx, l_yy = rows[:, :, -dx - dy : -dy], rows[:, :, -dy:]
        l_y_c = np.linalg.cholesky(l_yx @ l_yx.transpose(0, 2, 1) + l_yy @ l_yy.transpose(0, 2, 1))
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovariance(f"a covariance of {', '.join(names)} is singular") from exc
    ratios = np.diagonal(l_y_c, axis1=1, axis2=2) / np.diagonal(l_yy, axis1=1, axis2=2)
    values = np.log(ratios).sum(axis=1) / LN2
    finite = np.isfinite(values)
    if not finite.all():
        raise DegenerateCovariance(f"non-finite determinant ratio for {names[int(np.argmin(finite))]}")
    return np.where(values > 0.0, values, 0.0)


def _as_block(b) -> np.ndarray:
    arr = np.asarray(b, dtype=np.float64)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ShapeMismatch(f"blocks must be 1-D or 2-D, got ndim={arr.ndim}")
    return arr


def gaussian_cmi(
    x_block: np.ndarray, y_block: np.ndarray, cond_block: np.ndarray | None = None
) -> float:
    """Plug-in Gaussian conditional mutual information I(X; Y | C) in bits.

    Computes ``0.5 * log2(det S_Y|C / det S_Y|XC)`` from the Cholesky factor
    of the empirical joint covariance of the row-aligned blocks. With an
    empty conditioning block this is the Gaussian mutual information.

    Parameters
    ----------
    x_block, y_block : ndarray
        2-D arrays with one row per observation (1-D inputs are treated as
        single columns).
    cond_block : ndarray or None
        Conditioning variables, same row count; ``None`` or zero columns for
        unconditional MI.

    Raises
    ------
    DegenerateCovariance
        If the joint covariance is numerically rank-deficient.
    TooFewSamples
        If fewer than ``dim + 2`` rows are supplied.
    """
    blocks = [_as_block(x_block), _as_block(y_block)]
    if cond_block is not None and _as_block(cond_block).shape[1] > 0:
        blocks.insert(0, _as_block(cond_block))
    rows = {b.shape[0] for b in blocks}
    if len(rows) != 1:
        raise ShapeMismatch(f"blocks disagree in row count: {sorted(rows)}")
    n = rows.pop()
    dx, dy = blocks[-2].shape[1], blocks[-1].shape[1]
    dim = sum(b.shape[1] for b in blocks)
    if n < dim + 2:
        raise TooFewSamples(f"need at least dim+2 = {dim + 2} rows, got {n}")

    joint = np.concatenate(blocks, axis=1)
    if not np.all(np.isfinite(joint)):
        raise ShapeMismatch("blocks must be finite")
    cov = estimate_covariance(joint).matrix
    return float(_cmi_bits(cov[None], dx, dy, ("the data",))[0])


def _te_columns(e: EmbedSpec) -> tuple[int, slice, slice, slice]:
    """Width of the lag window that ends at time t, and the columns of the
    source past, the target present and the target past within it."""
    t0 = max(e.delay + e.source_history - 1, e.target_history)
    source_past = slice(t0 + 1 - e.delay - e.source_history, t0 + 1 - e.delay)
    return t0 + 1, source_past, slice(t0, t0 + 1), slice(t0 - e.target_history, t0)


def te_blocks(
    source: np.ndarray, target: np.ndarray, e: EmbedSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-aligned (source-past, target-present, target-past) blocks.

    For each valid time t: source at t-delay-source_history+1 .. t-delay,
    target at t, and target at t-target_history .. t-1. All three share the
    same valid t set (truncation convention). The blocks are read-only views.
    """
    width, src, present, past = _te_columns(e)
    rows = source.size - width + 1
    if rows < 1:
        raise SeriesTooShort(f"series of length {source.size} leaves no valid rows")
    target_window = lag_view(target, 0, rows, width)
    return lag_view(source, 0, rows, width)[:, src], target_window[:, present], target_window[:, past]


def transfer_entropies(signals, pairs, e: EmbedSpec, names=None) -> np.ndarray:
    """Transfer entropies in bits for ``(i, j)`` index pairs of aligned series.

    Entry ``p`` is :func:`transfer_entropy` from ``signals[i]`` to
    ``signals[j]`` for ``pairs[p] == (i, j)``, on the valid rows of
    :func:`te_blocks`. Each series' lag window is centred once and each Gram
    block (a window with itself, or a source window with a target window)
    is formed once; each pair's covariance is gathered from those blocks, so
    its value does not depend on the other series passed. The rank check and
    the Cholesky factorisations run batched over the pairs. Raises as
    :func:`transfer_entropy` does; a ``DegenerateCovariance`` names the first
    degenerate pair as ``source->target`` using ``names`` (default: labels).
    """
    names = [x.label for x in signals] if names is None else names
    n = len(signals[0])
    for name, x in zip(names, signals):
        if len(x) != n or x.rate_hz != signals[0].rate_hz:
            raise ShapeMismatch(f"{name} differs from {names[0]} in length or rate")
    sh = e.source_history
    dim = sh + e.target_history + 1
    min_len = sh + e.target_history + e.delay + dim + 2
    if n <= min_len:
        raise SeriesTooShort(f"need more than {min_len} samples for this embedding, got {n}")

    width, src, present, past = _te_columns(e)
    # covariance columns in [target past, source past, target present] order
    th = e.target_history
    xs, tpos, tgt = slice(th, th + sh), np.r_[:th, dim - 1], np.r_[past, present]
    rows = n - width + 1
    windows = np.empty((len(signals), width, rows))
    for i in {i for pair in pairs for i in pair}:
        # the transposed lag window: row c is window column c over all rows
        window = lag_view(signals[i].samples, 0, width, rows)
        np.subtract(window, window.mean(axis=1, keepdims=True), out=windows[i])
    grams = {}
    covs = np.empty((len(pairs), dim, dim))
    for p, (i, j) in enumerate(pairs):
        for a, b in ((i, i), (i, j), (j, j)):
            if (a, b) not in grams:
                grams[a, b] = windows[a] @ windows[b].T
        cross = grams[i, j][src][:, tgt]
        covs[p, xs, xs] = grams[i, i][src, src]
        covs[p][xs, tpos] = cross
        covs[p][tpos, xs] = cross.T
        covs[p][np.ix_(tpos, tpos)] = grams[j, j][np.ix_(tgt, tgt)]
    covs /= rows

    labels = [f"TE {names[i]}->{names[j]}" for i, j in pairs]
    finite = np.isfinite(covs).all(axis=(1, 2))
    if not finite.all():
        raise DegenerateCovariance(f"covariance of {labels[int(np.argmin(finite))]} is not finite")
    _check_rank(covs, labels)
    return _cmi_bits(covs, sh, 1, labels)


def transfer_entropy(source: TimeSeries, target: TimeSeries, e: EmbedSpec) -> float:
    """Transfer entropy from ``source`` to ``target`` in bits.

    The information the source's past (ending ``delay`` samples back,
    ``source_history`` samples long) carries about the target's present,
    conditioned on the target's own past (``target_history`` samples).
    A one-pair call of :func:`transfer_entropies`; equal to
    ``gaussian_cmi(*te_blocks(...))`` up to rounding.

    Raises
    ------
    ShapeMismatch
        If the series differ in length or rate.
    SeriesTooShort
        If fewer than ``source_history + target_history + delay + dim + 2``
        samples are available.
    DegenerateCovariance
        If the covariance is not finite or numerically rank-deficient.
    """
    return float(transfer_entropies((source, target), [(0, 1)], e)[0])


def plug_in_bias(n_samples: int, dim_x: int, dim_y: int = 1) -> float:
    """Analytic first-order bias of the plug-in Gaussian CMI, in bits.

    Reported alongside estimates; never subtracted automatically.
    """
    return dim_x * dim_y / (2.0 * n_samples * LN2)
