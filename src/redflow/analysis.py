"""Distortion and distortion-rate analysis.

Distortion for a trial is ``1 - |rho|`` with rho the Pearson correlation
between the normalized stimulus and its reconstruction, expressed in dB as
``10 log10(D)`` (a power-like, mean-squared-error-affine quantity).
Rate distributions are smoothed with a Gaussian-kernel density estimate,
truncated at a support threshold, averaged in overlapping rate windows, and
summarized by an ordinary least-squares line with a slope t-test.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import betainc

from .errors import (
    DegenerateX,
    EmptySupport,
    NoPoints,
    NonpositiveDistortion,
    OutOfRange,
    ShapeMismatch,
    TooFewSamples,
    ZeroVarianceSignal,
)

RATE_KINDS = ("S_to_Shat", "E_to_Shat", "S_to_E", "Rmin")

#: Grid size for density evaluation (covers min-3h .. max+3h).
KDE_GRID_POINTS = 512


@dataclass(frozen=True)
class RateDistortionPoint:
    """One (rate, distortion) observation for one trial and condition.

    ``distortion_db`` is ``10 log10(distortion)`` and is ``None`` for exact
    zero distortion (excluded from dB curves, counted separately).
    """

    rate: float
    distortion: float
    condition: str
    subject_id: str
    trial_id: str
    rate_kind: str

    def __post_init__(self):
        if not 0.0 <= self.distortion <= 1.0:
            raise OutOfRange(f"distortion must be in [0, 1], got {self.distortion}")
        if self.rate_kind not in RATE_KINDS:
            raise ShapeMismatch(f"rate_kind must be one of {RATE_KINDS}")

    @property
    def distortion_db(self) -> float | None:
        if self.distortion == 0.0:
            return None
        return to_db(self.distortion)

    def to_dict(self) -> dict:
        return {**asdict(self), "distortion_db": self.distortion_db}


@dataclass(frozen=True)
class LinearFit:
    """OLS line with a two-sided slope t-test."""

    slope: float
    intercept: float
    p_value: float
    n_points: int
    r_squared: float

    def to_dict(self) -> dict:
        return asdict(self)


def distortion(rho: float) -> float:
    """Distortion ``1 - |rho|`` for a correlation in [-1, 1].

    Values within 1e-9 outside the interval (rounding of an exact +-1
    correlation) are clamped; anything further raises OutOfRange.
    """
    if abs(rho) > 1.0 + 1e-9:
        raise OutOfRange(f"|rho| must be <= 1, got {rho}")
    return max(0.0, 1.0 - min(abs(rho), 1.0))


def to_db(d: float) -> float:
    """10 log10 of a positive distortion.

    Raises
    ------
    NonpositiveDistortion
        For d <= 0 (zero distortion means perfect reconstruction and is
        reported separately, never on dB curves).
    """
    if d <= 0.0:
        raise NonpositiveDistortion(f"dB undefined for distortion {d}")
    return 10.0 * math.log10(d)


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Normal-reference bandwidth 1.06 * std * n^(-1/5)."""
    samples = np.asarray(samples, dtype=np.float64)
    sd = float(np.std(samples, ddof=1))
    return 1.06 * sd * samples.size ** (-0.2)


def kde_pdf(samples, eval_grid) -> np.ndarray:
    """Gaussian-kernel density estimate on a grid.

    Uses the normal-reference (Silverman) bandwidth. Densities are
    nonnegative everywhere and integrate to ~1 over a wide grid.

    Raises
    ------
    TooFewSamples
        For fewer than 5 samples.
    ZeroVarianceSignal
        If all samples are equal.
    """
    samples = np.asarray(samples, dtype=np.float64)
    grid = np.asarray(eval_grid, dtype=np.float64)
    if samples.size < 5:
        raise TooFewSamples(f"KDE needs >= 5 samples, got {samples.size}")
    if float(np.var(samples)) <= 0.0:
        raise ZeroVarianceSignal("KDE needs positive sample variance")
    h = silverman_bandwidth(samples)
    norm = 1.0 / (samples.size * h * math.sqrt(2.0 * math.pi))
    out = np.empty(grid.size)
    # chunk the grid so the (grid x samples) kernel matrix stays small
    chunk = max(1, int(4_000_000 // max(samples.size, 1)))
    for lo in range(0, grid.size, chunk):
        z = (grid[lo : lo + chunk, None] - samples[None, :]) / h
        out[lo : lo + chunk] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    return out


def default_grid(samples) -> np.ndarray:
    """Evaluation grid spanning min-3h .. max+3h with KDE_GRID_POINTS points."""
    samples = np.asarray(samples, dtype=np.float64)
    h = silverman_bandwidth(samples)
    return np.linspace(samples.min() - 3 * h, samples.max() + 3 * h, KDE_GRID_POINTS)


def support_threshold(grid, density, level: float = 0.01) -> float:
    """Largest grid point whose density exceeds ``level``.

    Raises
    ------
    EmptySupport
        If no grid point exceeds the level.
    """
    grid = np.asarray(grid, dtype=np.float64)
    density = np.asarray(density, dtype=np.float64)
    if grid.shape != density.shape:
        raise ShapeMismatch("grid and density must have the same shape")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ShapeMismatch("grid must be strictly increasing")
    above = np.nonzero(density > level)[0]
    if above.size == 0:
        raise EmptySupport(f"no density value exceeds {level}")
    return float(grid[above[-1]])


def bin_rd(points, width: float, stride: float) -> list:
    """Average distortion (in dB) in overlapping rate windows.

    Window centers start at the smallest rate and advance by ``stride``
    until the largest rate is covered; each window spans center +- width/2.
    Points with zero distortion (no dB value) are skipped; empty windows are
    omitted. Returns (center, mean_db, count) triples.

    Raises
    ------
    NoPoints
        If no point carries a dB value.
    """
    if width <= 0 or stride <= 0:
        raise ShapeMismatch("width and stride must be > 0")
    usable = [(p.rate, p.distortion_db) for p in points if p.distortion_db is not None]
    if not usable:
        raise NoPoints("no rate-distortion points with positive distortion")
    rates = np.array([u[0] for u in usable])
    dbs = np.array([u[1] for u in usable])
    lo, hi = float(rates.min()), float(rates.max())
    n_windows = int(math.floor((hi - lo) / stride)) + 1
    centers = [lo + i * stride for i in range(n_windows)]
    if centers[-1] + width / 2.0 < hi:
        # one extra window so the largest rates stay covered for any
        # stride <= width
        centers.append(lo + n_windows * stride)
    out = []
    for center in centers:
        mask = (rates >= center - width / 2.0) & (rates <= center + width / 2.0)
        count = int(mask.sum())
        if count:
            out.append((center, float(dbs[mask].mean()), count))
    return out


def t_cdf(t: float, dof: int) -> float:
    """Student-t cumulative distribution via the regularized incomplete beta."""
    if dof < 1:
        raise OutOfRange(f"degrees of freedom must be >= 1, got {dof}")
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    x = dof / (dof + t * t)
    tail = 0.5 * float(betainc(dof / 2.0, 0.5, x))
    return 1.0 - tail if t > 0 else tail


def fit_linear(xs, ys) -> LinearFit:
    """OLS fit with a two-sided t-test of slope = 0 (n-2 degrees of freedom).

    Raises
    ------
    TooFewSamples
        For fewer than 3 points.
    DegenerateX
        If all x values coincide.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeMismatch("xs and ys must be equal-length 1-D sequences")
    n = x.size
    if n < 3:
        raise TooFewSamples(f"linear fit needs >= 3 points, got {n}")
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    if sxx <= 0.0:
        raise DegenerateX("all x values are equal")
    dy = y - y.mean()
    slope = float(np.dot(dx, dy) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ssr = float(np.dot(resid, resid))
    sst = float(np.dot(dy, dy))
    r_squared = 1.0 - ssr / sst if sst > 0.0 else 0.0
    dof = n - 2
    se2 = ssr / dof / sxx
    if se2 <= 0.0:
        # exact fit: infinite t statistic
        p_value = 0.0 if slope != 0.0 else 1.0
    else:
        t = slope / math.sqrt(se2)
        # identical to 2*(1 - t_cdf(|t|, dof)) but without cancellation
        p_value = float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
    return LinearFit(
        slope=slope,
        intercept=intercept,
        p_value=min(max(p_value, 0.0), 1.0),
        n_points=n,
        r_squared=min(max(r_squared, 0.0), 1.0),
    )
