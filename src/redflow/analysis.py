"""Distortion and distortion-rate analysis.

Distortion for a trial is ``1 - |rho|`` with rho the Pearson correlation
between the normalized stimulus and its reconstruction, expressed in dB as
``10 log10(D)`` (a power-like, mean-squared-error-affine quantity).
Rate distributions are smoothed with a Gaussian-kernel density estimate,
truncated at a support threshold, averaged in overlapping rate windows, and
summarized by an ordinary least-squares line with a slope t-test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

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

#: The rate record key behind each rate kind: the one kind -> key table.
RATE_KEYS = {"S_to_Shat": "r_s_to_shat", "E_to_Shat": "r_e_to_shat", "S_to_E": "r_s_to_e", "Rmin": "r_min"}
RATE_KINDS = tuple(RATE_KEYS)
#: The stimulus a decoder reconstructs: the attended or the distracting talker.
CONDITIONS = ("attended", "distractor")

#: Grid size for density evaluation (covers min-3h .. max+3h).
KDE_GRID_POINTS = 512

#: ln Gamma(1/2).
_LN_SQRT_PI = 0.5 * math.log(math.pi)


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
    correlation) are clamped; anything further, and NaN, raises OutOfRange.
    """
    if not abs(rho) <= 1.0 + 1e-9:
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
    # chunk the grid so each (grid x samples) temporary stays near 64 KB
    # (8,192 doubles; one row at a time past that many samples); each grid
    # row sums the same terms in any chunk, so the chunking changes no value
    chunk = max(1, 8_192 // samples.size)
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


def bin_rd(rates, distortions, width: float, stride: float) -> list:
    """Average distortion (in dB) in overlapping rate windows.

    ``rates`` and ``distortions`` hold one value per trial. Window centers
    start at the smallest rate and advance by ``stride`` until the largest
    rate is covered; each window spans center +- width/2. Trials with zero
    distortion (no dB value) are skipped; empty windows are omitted. Each dB
    value is the scalar :func:`to_db`, so a curve does not depend on how a
    vectorised log rounds. Returns (center, mean_db, count) triples.

    Raises
    ------
    ShapeMismatch
        Unless 0 < stride <= width: a wider stride leaves gaps between
        windows, and the rates in them would never be averaged. Also for
        rates and distortions of unequal length.
    NoPoints
        If no trial has a positive distortion.
    """
    if width <= 0 or stride <= 0:
        raise ShapeMismatch("width and stride must be > 0")
    if stride > width:
        raise ShapeMismatch(f"stride ({stride}) must be <= width ({width})")
    rates = np.asarray(rates, dtype=np.float64)
    distortions = np.asarray(distortions, dtype=np.float64)
    if rates.shape != distortions.shape or rates.ndim != 1:
        raise ShapeMismatch("rates and distortions must be equal-length 1-D sequences")
    usable = distortions != 0.0
    if not usable.any():
        raise NoPoints("no rate-distortion points with positive distortion")
    rates = rates[usable]
    dbs = np.array([to_db(d) for d in distortions[usable].tolist()])
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


def _ln_beta_half(a: float) -> float:
    """ln B(a, 1/2) = ln Gamma(a) + ln Gamma(1/2) - ln Gamma(a + 1/2)."""
    if a < 40.0:
        return math.lgamma(a) + _LN_SQRT_PI - math.lgamma(a + 0.5)
    # the asymptotic series of ln Gamma(a + 1/2) - ln Gamma(a), ln(a)/2 -
    # 1/(8a) + 1/(192a^3) - 1/(640a^5): the lgamma difference would lose
    # |ln Gamma(a)| * eps to cancellation
    r = 1.0 / a
    return _LN_SQRT_PI - (0.5 * math.log(a) - r * (0.125 - r * r * (1.0 / 192.0 - r * r / 640.0)))


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) / (x^a y^b / B(a, b)) for y = 1 - x and lam = (a + b) y - b
    >= 0: the continued fraction BFRAC of DiDonato & Morris (1992, ACM TOMS
    18, Algorithm 708). With lam formed from y it loses no digits where x is
    close to 1, unlike the usual form, whose first term 1 - (a + b) x / (a +
    1) cancels there (a relative error of about a * eps at x = 1 - 1/a)."""
    c, c0, c1 = 1.0 + lam, b / a, 1.0 + 1.0 / a
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in itertools.count(1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * w * x
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * (y + 1.0))
        p, s = 1.0 + t, s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            return r
        # rescale so the recurrence neither overflows nor underflows
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0


def _beta_half(a: float, x: float) -> float:
    """Regularized incomplete beta ratio I_x(a, 1/2) for x in [0, 1], a > 0.

    Below the mean a / (a + 1/2) of the Beta(a, 1/2) law the continued
    fraction gives I_x(a, 1/2) directly, above it 1 - I_{1-x}(1/2, a): each
    side then converges in a few hundred terms at most, for any a. 1 - x is
    exact on the side that needs it (x >= 1/2).
    """
    if not 0.0 < x < 1.0:
        return x  # I_0 = 0, I_1 = 1, and NaN stays NaN
    y = 1.0 - x
    front = math.exp(a * math.log(x) + 0.5 * math.log(y) - _ln_beta_half(a))
    lam = (a + 0.5) * y - 0.5
    if lam >= 0.0:
        # past an underflowed front factor the fraction could overflow
        return front * _beta_fraction(a, 0.5, x, y, lam) if front > 0.0 else 0.0
    return 1.0 - front * _beta_fraction(0.5, a, y, x, -lam)


def t_cdf(t: float, dof: int) -> float:
    """Student-t cumulative distribution via the regularized incomplete beta."""
    if dof < 1:
        raise OutOfRange(f"degrees of freedom must be >= 1, got {dof}")
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    x = dof / (dof + t * t)
    tail = 0.5 * _beta_half(dof / 2.0, x)
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
        p_value = _beta_half(dof / 2.0, dof / (dof + t * t))
    return LinearFit(
        slope=slope,
        intercept=intercept,
        p_value=min(max(p_value, 0.0), 1.0),
        n_points=n,
        r_squared=min(max(r_squared, 0.0), 1.0),
    )
