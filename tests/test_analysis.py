"""Distortion, density estimation, binning, and the slope significance test."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from redflow.analysis import (
    _beta_half,
    bin_rd,
    default_grid,
    distortion,
    fit_linear,
    kde_pdf,
    silverman_bandwidth,
    support_threshold,
    t_cdf,
    to_db,
)
from redflow.cli import RunConfig, _write_rates
from redflow.errors import (
    DegenerateX,
    EmptySupport,
    NoPoints,
    NonpositiveDistortion,
    OutOfRange,
    ShapeMismatch,
    TooFewSamples,
    ZeroVarianceSignal,
)


def t_cdf_quadrature(t, dof):
    """Oracle: integrate the t density directly (gamma-function normalizer)."""
    norm = math.gamma((dof + 1) / 2.0) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2.0))

    def pdf(u):
        return norm * (1.0 + u * u / dof) ** (-(dof + 1) / 2.0)

    if t >= 0:
        tail, _ = quad(pdf, t, np.inf)
        return 1.0 - tail
    tail, _ = quad(pdf, -np.inf, t)
    return tail


class TestDistortion:
    def test_perfect(self):
        assert distortion(1.0) == 0.0

    def test_negative_correlation_not_penalized(self):
        assert distortion(-0.5) == 0.5

    def test_uncorrelated(self):
        assert distortion(0.0) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for rho in rng.uniform(-1, 1, size=100):
            assert distortion(rho) == distortion(-rho)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            distortion(1.5)

    def test_rounding_slack(self):
        assert distortion(1.0 + 1e-12) == 0.0

    def test_nan_refused(self):
        # NaN fails every comparison, so a "> 1" test would let it through
        # and max(0.0, nan) would score it as a perfect reconstruction
        for rho in (float("nan"), -float("nan"), np.nan):
            with pytest.raises(OutOfRange):
                distortion(rho)


class TestToDb:
    def test_unity(self):
        assert to_db(1.0) == 0.0

    def test_value(self):
        assert to_db(0.75) == pytest.approx(-1.2494, abs=1e-4)

    def test_zero_rejected(self):
        with pytest.raises(NonpositiveDistortion):
            to_db(0.0)


class TestKde:
    def test_standard_normal_density_at_zero(self):
        x = np.random.default_rng(10).standard_normal(100_000)
        d0 = kde_pdf(x, np.array([0.0]))[0]
        assert abs(d0 - 1.0 / math.sqrt(2 * math.pi)) < 0.01

    def test_integrates_to_one(self):
        x = np.random.default_rng(11).standard_normal(20_000)
        grid = np.linspace(-6.0, 6.0, 1024)
        dens = kde_pdf(x, grid)
        assert abs(trapezoid(dens, grid) - 1.0) < 0.01

    def test_nonnegative_everywhere(self):
        x = np.random.default_rng(12).uniform(0, 1, size=500)
        dens = kde_pdf(x, default_grid(x))
        assert np.all(dens >= 0.0)

    @pytest.mark.parametrize("n, every", [(5, 1), (900, 1), (9_000, 4)])
    def test_chunked_grid_equals_one_kernel_matrix(self, n, every):
        # the oracle evaluates the whole (grid x samples) kernel matrix at
        # once; kde_pdf chunks the grid (here 512 // every points; one row
        # per chunk past 8,192 samples) and must sum each row the same way
        x = np.random.default_rng(14).gamma(2.0, size=n)
        grid = default_grid(x)[::every]
        h = silverman_bandwidth(x)
        z = (grid[:, None] - x[None, :]) / h
        want = 1.0 / (x.size * h * math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z).sum(axis=1)
        assert np.array_equal(kde_pdf(x, grid), want)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            kde_pdf([1.0, 2.0, 3.0, 4.0], [0.0])

    def test_constant_samples(self):
        with pytest.raises(ZeroVarianceSignal):
            kde_pdf([2.0] * 10, [0.0])

    def test_bandwidth_formula(self):
        x = np.random.default_rng(13).standard_normal(1000)
        expected = 1.06 * np.std(x, ddof=1) * 1000 ** (-0.2)
        assert silverman_bandwidth(x) == pytest.approx(expected)


class TestSupportThreshold:
    def test_gaussian_crossing(self):
        # density mass centered at 3.0 with scale 0.5; the analytic 0.01
        # crossing is at 3 + 0.5 * sqrt(-2 ln(0.005 * sqrt(2 pi) * 0.5))
        grid = np.linspace(0.0, 8.0, 4001)
        sd = 0.5
        density = np.exp(-0.5 * ((grid - 3.0) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        crossing = 3.0 + sd * math.sqrt(-2.0 * math.log(0.01 * sd * math.sqrt(2 * math.pi)))
        got = support_threshold(grid, density, 0.01)
        assert abs(got - crossing) < (grid[1] - grid[0]) * 1.5

    def test_level_zero_returns_last_point(self):
        grid = np.linspace(0, 1, 11)
        density = np.full(11, 0.5)
        assert support_threshold(grid, density, 0.0) == 1.0

    def test_empty_support(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(EmptySupport):
            support_threshold(grid, np.full(11, 0.001), 0.01)

    def test_grid_must_increase(self):
        with pytest.raises(ShapeMismatch):
            support_threshold([1.0, 0.5], [1.0, 1.0], 0.01)


class TestBinRd:
    def test_two_points_one_window(self):
        out = bin_rd([0.001, 0.002], [10 ** (-1 / 10), 10 ** (-3 / 10)], width=0.005, stride=0.005)
        center, mean_db, count = out[0]
        assert count == 2
        assert mean_db == pytest.approx(-2.0, abs=1e-9)

    def test_single_point(self):
        out = bin_rd(np.array([0.01]), np.array([0.5]), width=0.005, stride=0.0025)
        assert len(out) == 1
        assert out[0][1] == pytest.approx(to_db(0.5))
        assert out[0][2] == 1

    def test_every_point_covered_when_stride_le_width(self):
        rng = np.random.default_rng(14)
        rates, dists = rng.uniform(0, 0.1, 200), rng.uniform(0.2, 0.9, 200)
        out = bin_rd(rates, dists, width=0.005, stride=0.005)
        assert sum(c for _, _, c in out) >= 200  # overlaps may double count

    def test_window_count_bound(self):
        rng = np.random.default_rng(15)
        rates = rng.uniform(0, 0.05, 300)
        stride = 0.0025
        out = bin_rd(rates, np.full(300, 0.5), width=0.005, stride=stride)
        assert len(out) <= math.ceil((rates.max() - rates.min()) / stride) + 1

    def test_planted_trend_recovered(self):
        # distortion_db = -100 * rate + noise; binned means track the line
        rng = np.random.default_rng(16)
        rates = rng.uniform(0.0, 0.1, 2000)
        db = -100.0 * rates - 1.0 + 0.3 * rng.standard_normal(2000)
        out = bin_rd(rates, 10 ** (db / 10), width=0.005, stride=0.0025)
        fit = fit_linear([c for c, _, _ in out], [m for _, m, _ in out])
        assert abs(fit.slope - (-100.0)) / 100.0 < 0.10

    def test_zero_distortion_points_skipped(self):
        out = bin_rd([0.01, 0.011], [0.0, 0.5], width=0.01, stride=0.01)
        assert sum(c for _, _, c in out) == 1

    def test_stride_wider_than_width_rejected(self):
        # windows 0.02 apart and 0.005 wide would skip most of these rates
        rates = np.linspace(0.0, 0.1, 101)
        with pytest.raises(ShapeMismatch, match="stride"):
            bin_rd(rates, np.full(101, 0.5), width=0.005, stride=0.02)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ShapeMismatch, match="equal-length"):
            bin_rd([0.01, 0.02, 0.03], [0.5, 0.5], width=0.005, stride=0.0025)

    def test_no_points(self):
        with pytest.raises(NoPoints):
            bin_rd([], [], width=0.005, stride=0.0025)
        with pytest.raises(NoPoints):
            bin_rd([0.01], [0.0], width=0.005, stride=0.0025)


class TestTCdf:
    def test_zero_is_half(self):
        assert t_cdf(0.0, 5) == 0.5

    def test_spot_value_nu10(self):
        oracle = t_cdf_quadrature(2.0, 10)
        assert abs(oracle - 0.96331) < 1e-5  # frozen from the quadrature oracle
        assert abs(t_cdf(2.0, 10) - oracle) < 1e-5

    def test_against_quadrature_grid(self):
        for dof in (1, 2, 5, 10, 30, 100):
            for t in (-4.0, -1.3, -0.2, 0.7, 2.0, 6.5):
                oracle = t_cdf_quadrature(t, dof)
                assert abs(t_cdf(t, dof) - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_symmetry(self):
        for t in (0.3, 1.7, 4.2):
            assert t_cdf(t, 7) + t_cdf(-t, 7) == pytest.approx(1.0, abs=1e-14)

    def test_bad_dof(self):
        with pytest.raises(OutOfRange):
            t_cdf(1.0, 0)

    def test_tails_sum_to_one(self):
        for dof in (1, 2, 5, 30, 1000, 100_000):
            for t in np.logspace(-6, 6, 49).tolist():
                assert abs(t_cdf(t, dof) + t_cdf(-t, dof) - 1.0) <= 1e-15

    def test_ends_are_exact(self):
        inf = float("inf")
        for dof in (1, 7, 100_000):
            assert t_cdf(-inf, dof) == 0.0 and t_cdf(inf, dof) == 1.0
            # t * t overflows: x = 0 exactly
            assert t_cdf(-1e200, dof) == 0.0 and t_cdf(1e200, dof) == 1.0
            # t * t vanishes next to dof: x = 1 exactly
            assert t_cdf(-1e-200, dof) == 0.5 == t_cdf(1e-200, dof)
            assert _beta_half(dof / 2.0, 0.0) == 0.0 and _beta_half(dof / 2.0, 1.0) == 1.0


class TestIncompleteBetaHalf:
    def test_matches_scipy_betainc(self):
        # scipy is the oracle here only; the package does not import it
        from scipy.special import betainc

        worst = 0.0
        for dof in [*map(int, np.unique(np.round(np.logspace(0, 5, 60)))), 99_999]:
            for t in np.logspace(-6, 6, 97).tolist():
                x = dof / (dof + t * t)
                want = float(betainc(dof / 2.0, 0.5, x))
                if want >= 1e-300:
                    worst = max(worst, abs(_beta_half(dof / 2.0, x) - want) / want)
        assert worst <= 1e-11


class TestFitLinear:
    def test_exact_line(self):
        x = np.arange(10.0)
        fit = fit_linear(x, 2.0 * x + 1.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.p_value < 1e-12
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.n_points == 10

    def test_null_p_values_uniform(self):
        rng = np.random.default_rng(17)
        hits = 0
        n_seeds = 1000
        for _ in range(n_seeds):
            x = rng.standard_normal(100)
            y = rng.standard_normal(100)
            if fit_linear(x, y).p_value < 0.05:
                hits += 1
        assert abs(hits / n_seeds - 0.05) < 0.02

    def test_p_invariant_under_x_rescaling(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(50)
        y = 0.3 * x + rng.standard_normal(50)
        base = fit_linear(x, y).p_value
        for a, b in ((2.0, 1.0), (-0.001, 5.0), (1e6, -3.0)):
            assert abs(fit_linear(a * x + b, y).p_value - base) < 1e-10

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            fit_linear([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_few_points(self):
        with pytest.raises(TooFewSamples):
            fit_linear([1.0, 2.0], [1.0, 2.0])

    def test_constant_y(self):
        fit = fit_linear([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert fit.slope == 0.0
        assert fit.p_value == 1.0


class TestRateDistortionPoint:
    def test_db_value(self, tmp_path):
        # an rd_points.ndjson line carries the dB value of its record's distortion
        record = {
            "condition": "attended", "subject_id": "s01", "trial_id": "t001", "distortion": 0.5,
            "r_s_to_shat": 0.03, "r_e_to_shat": 0.02, "r_s_to_e": 0.01, "r_min": 0.01,
        }
        _write_rates(RunConfig(), tmp_path, [record], None)
        lines = [
            l for l in (tmp_path / "rd_points.ndjson").read_text().splitlines()
            if not l.startswith("# meta ")
        ]
        assert len(lines) == 4
        for line in lines:
            assert json.loads(line)["distortion_db"] == pytest.approx(to_db(0.5))
