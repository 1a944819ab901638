"""Gaussian (linear) estimators of mutual information, conditional mutual
information, and transfer entropy with finite history embedding.

All quantities are plug-in estimates in bits, computed from empirical
covariances under a jointly Gaussian model. They are exact for linear
Gaussian processes and first-order approximations otherwise. Estimates are
invariant to per-variable invertible affine maps and clamped at zero (the
population quantity is nonnegative; the clamp only absorbs rounding).

Every estimate goes through one solve, :func:`_cmi_bits`: it checks a stack
of [C, X, Y] covariances for finiteness, then rank, and reads each CMI from
one Cholesky factor. :func:`gaussian_cmi` passes it the maximum-likelihood
covariance of row-sample blocks, :func:`transfer_entropies` a batch gathered
from lag-window Grams.

Only pairwise (per-channel) conditioning is exposed: a target that is a
deterministic function of several sources jointly is handled by estimating
one source at a time, which keeps every covariance nondegenerate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateCovariance, SeriesTooShort, ShapeMismatch, TooFewSamples
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


def _cmi_bits(covs: np.ndarray, dx: int, dy: int, names) -> np.ndarray:
    """I(X; Y | C) in bits, clamped at zero, for each covariance of a
    (k, dim, dim) stack in [C, X, Y] column order: the one covariance solve.

    A DegenerateCovariance names the first matrix that is not finite, or else
    the first with lambda_min < _RANK_RTOL * lambda_max, with its position
    in the stack as ``index``; past these checks both Cholesky factorisations
    succeed. The last dy rows of the Cholesky factor L hold both residual
    covariances: Cov(Y | C, X) = L_YY L_YY' and Cov(Y | C) = L_YX L_YX' +
    L_YY L_YY', so I = 0.5 log2(det Cov(Y | C) / det Cov(Y | C, X)) needs one
    more dy x dy factorisation and no difference of large log-determinants.
    """
    finite = np.isfinite(covs).all(axis=(1, 2))
    why, bad = "is not finite", ~finite
    if finite.all():
        eigs = np.linalg.eigvalsh(covs)
        bad = (eigs[:, -1] <= 0.0) | (eigs[:, 0] < _RANK_RTOL * eigs[:, -1])
        why = ("is numerically rank-deficient; "
               "the Gaussian information quantity diverges (deterministic dependence?)")
    if bad.any():
        error = DegenerateCovariance(f"covariance of {names[int(np.argmax(bad))]} {why}")
        error.index = int(np.argmax(bad))
        raise error
    rows = np.linalg.cholesky(covs)[:, -dy:]
    l_yx, l_yy = rows[:, :, -dx - dy : -dy], rows[:, :, -dy:]
    l_y_c = np.linalg.cholesky(l_yx @ l_yx.transpose(0, 2, 1) + l_yy @ l_yy.transpose(0, 2, 1))
    ratios = np.diagonal(l_y_c, axis1=1, axis2=2) / np.diagonal(l_yy, axis1=1, axis2=2)
    values = np.log(ratios).sum(axis=1) / LN2
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
        If the joint maximum-likelihood covariance (divide by n) is not
        finite or numerically rank-deficient.
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
    centered = joint - joint.mean(axis=0)
    cov = centered.T @ centered / n
    cov = 0.5 * (cov + cov.T)
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


def transfer_entropies(x: np.ndarray, pairs, e: EmbedSpec, names) -> np.ndarray:
    """Transfer entropies in bits for ``(i, j)`` row pairs of a (k, n) array.

    Entry ``p`` is :func:`transfer_entropy` from row ``x[i]`` to row
    ``x[j]`` for ``pairs[p] == (i, j)``, on the valid rows of
    :func:`te_blocks`. Each row's lag window is centred once and each Gram
    block (a window with itself, or a source window with a target window)
    is formed once. The pairs' blocks are stacked into one batch of block
    Grams, and each covariance is gathered from its block Gram with one
    fixed index, so its value does not depend on the other rows passed.
    The checks and factorisations of :func:`_cmi_bits` run batched over the
    pairs. Raises as :func:`transfer_entropy` does, but the caller checks
    lengths and rates; a ``DegenerateCovariance`` names the first degenerate
    pair as ``source->target`` by the rows' ``names``, at ``index`` in ``pairs``.
    """
    n = x.shape[1]
    sh = e.source_history
    dim = sh + e.target_history + 1
    min_len = sh + e.target_history + e.delay + dim + 2
    if n <= min_len:
        raise SeriesTooShort(f"need more than {min_len} samples for this embedding, got {n}")

    width, src, present, past = _te_columns(e)
    # covariance columns in [target past, source past, target present] order
    # within the block Gram [[G_jj, G_ij'], [G_ij, G_ii]] of target j, source i
    cols = np.arange(width)
    order = np.r_[cols[past], width + cols[src], cols[present]]
    gather = np.ix_(order, order)
    rows = n - width + 1
    windows = np.empty((x.shape[0], width, rows))
    for i in {i for pair in pairs for i in pair}:
        # the transposed lag window: row c is window column c over all rows
        window = lag_view(x[i], 0, width, rows)
        np.subtract(window, window.mean(axis=1, keepdims=True), out=windows[i])
    needed = {ab for i, j in pairs for ab in ((i, i), (i, j), (j, j))}
    grams = {(a, b): windows[a] @ windows[b].T for a, b in needed}
    g_jj = np.stack([grams[j, j] for i, j in pairs])
    g_ij = np.stack([grams[i, j] for i, j in pairs])
    g_ii = np.stack([grams[i, i] for i, j in pairs])
    block_grams = np.block([[g_jj, g_ij.transpose(0, 2, 1)], [g_ij, g_ii]])
    covs = block_grams[:, gather[0], gather[1]] / rows
    return _cmi_bits(covs, sh, 1, [f"TE {names[i]}->{names[j]}" for i, j in pairs])


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
    if len(source) != len(target) or source.rate_hz != target.rate_hz:
        raise ShapeMismatch(f"{target.label} differs from {source.label} in length or rate")
    x = np.vstack((source.samples, target.samples))
    return float(transfer_entropies(x, [(0, 1)], e, (source.label, target.label))[0])


def plug_in_bias(n_samples: int, dim_x: int, dim_y: int = 1) -> float:
    """Analytic first-order bias of the plug-in Gaussian CMI, in bits.

    Reported alongside estimates; never subtracted automatically.
    """
    return dim_x * dim_y / (2.0 * n_samples * LN2)
