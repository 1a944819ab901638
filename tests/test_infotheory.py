"""Gaussian CMI, mutual information, and transfer entropy estimators."""

import math

import numpy as np
import pytest
from scipy.linalg import block_diag, toeplitz

from redflow.errors import (
    DegenerateCovariance,
    SeriesTooShort,
    ShapeMismatch,
    TooFewSamples,
)
from redflow import synth
from redflow.infotheory import (
    EmbedSpec,
    _cmi_bits,
    gaussian_cmi,
    plug_in_bias,
    te_blocks,
    transfer_entropies,
    transfer_entropy,
)
from redflow.decoder import build_design
from redflow.signals import LagWindow, MultichannelRecording, TimeSeries
from redflow.synth import VarModel, analytic_te, simulate

N = 100_000


def ts(values, label="x"):
    return TimeSeries(label, 64.0, values)


def exact_cmi_bits(sigma, dx, dy):
    """Closed-form Gaussian CMI from a true covariance (test-local oracle)."""
    dim = sigma.shape[0]
    ix = list(range(dx))
    iy = list(range(dx, dx + dy))
    ic = list(range(dx + dy, dim))

    def ld(idx):
        if not idx:
            return 0.0
        sub = sigma[np.ix_(idx, idx)]
        return float(np.linalg.slogdet(sub)[1])

    return 0.5 * (ld(ix + ic) + ld(iy + ic) - ld(ic) - ld(ix + iy + ic)) / math.log(2)


class TestGaussianCmi:
    def test_independent_triple_near_zero(self):
        rng = np.random.default_rng(0)
        x, y, c = (rng.standard_normal(N) for _ in range(3))
        assert gaussian_cmi(x, y, c) <= 0.002

    def test_deterministic_copy_raises(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(N)
        with pytest.raises(DegenerateCovariance):
            gaussian_cmi(x, x.copy())

    def test_overflowing_covariance_raises(self):
        # finite blocks whose covariance overflows to inf
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((2, 500)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DegenerateCovariance, match="covariance of the data is not finite"
        ):
            gaussian_cmi(x, y)

    def test_matches_closed_form_for_known_covariance(self):
        # sample from a fixed 3-dim Gaussian; oracle = CMI of the true sigma
        sigma = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]])
        rng = np.random.default_rng(2)
        data = rng.standard_normal((N, 3)) @ np.linalg.cholesky(sigma).T
        oracle = exact_cmi_bits(sigma, 1, 1)
        est = gaussian_cmi(data[:, 0], data[:, 1], data[:, 2])
        assert abs(est - oracle) < 0.005

    def test_nonnegative(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal((200, 4))
            assert gaussian_cmi(data[:, :2], data[:, 2], data[:, 3]) >= 0.0

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gaussian_cmi(np.zeros((10, 1)), np.zeros((9, 1)))

    def test_too_few_rows(self):
        rng = np.random.default_rng(3)
        with pytest.raises(TooFewSamples):
            gaussian_cmi(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))


class TestMutualInformation:
    def test_bivariate_closed_form(self):
        rho = 0.5
        rng = np.random.default_rng(4)
        x = rng.standard_normal(N)
        y = rho * x + math.sqrt(1 - rho**2) * rng.standard_normal(N)
        oracle = -0.5 * math.log2(1 - rho**2)
        assert abs(gaussian_cmi(x, y) - oracle) < 0.005

    def test_independent_below_bias_bound(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(N), rng.standard_normal(N)
        assert gaussian_cmi(x, y) <= 10 * plug_in_bias(N, 1, 1) + 1e-4

    def test_near_copy_large_but_finite(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(N)
        y = x + 1e-3 * rng.standard_normal(N)
        mi = gaussian_cmi(x, y)
        assert mi > 9.0
        assert math.isfinite(mi)


class TestEmbedSpec:
    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            EmbedSpec(source_history=0)
        with pytest.raises(ShapeMismatch):
            EmbedSpec(target_history=0)
        with pytest.raises(ShapeMismatch):
            EmbedSpec(delay=0)

    def test_blocks_align_with_lag_embed(self):
        # row t of the blocks must hold source[t-delay-k+1 .. t-delay],
        # target[t], target[t-l .. t-1], on a shared valid t range
        src = np.arange(10.0)
        tgt = np.arange(10.0, 20.0)
        e = EmbedSpec(source_history=2, target_history=3, delay=2)
        x, y, c = te_blocks(src, tgt, e)
        t0 = max(e.delay + e.source_history - 1, e.target_history)
        assert x.shape == (10 - t0, 2)
        for i, t in enumerate(range(t0, 10)):
            np.testing.assert_array_equal(x[i], src[[t - 3, t - 2]])
            np.testing.assert_array_equal(c[i], tgt[[t - 3, t - 2, t - 1]])
            assert y[i, 0] == tgt[t]
        # cross-check the source block against the decoder's lag-design truncation
        emb = build_design(MultichannelRecording(("x",), 64.0, [src]), LagWindow(-3, -2))
        np.testing.assert_array_equal(x, emb[t0 - 3 :])


class TestTransferEntropy:
    def test_independent_white_noise(self):
        rng = np.random.default_rng(7)
        e = EmbedSpec(source_history=4, target_history=4, delay=1)
        te = transfer_entropy(ts(rng.standard_normal(N)), ts(rng.standard_normal(N)), e)
        assert te <= 0.003

    def test_ar_pair_matches_hand_formula(self):
        # Z_t = 0.9 Z_{t-1} + 0.5 X_{t-1} + eps, X white:
        # conditional variance drops 1.25 -> 1.0, TE = 0.5*log2(1.25)
        model = VarModel(transition=[[0.0, 0.0], [0.5, 0.9]], noise_cov=np.eye(2))
        e = EmbedSpec(source_history=1, target_history=1, delay=1)
        hand = 0.5 * math.log2(1.25)
        assert abs(analytic_te(model, 0, 1, e) - hand) < 1e-12
        rec = simulate(model, N, seed=7)
        est = transfer_entropy(rec.channels[0], rec.channels[1], e)
        assert abs(est - hand) < 0.005

    def test_anticausal_direction_carries_nothing(self):
        model = VarModel(transition=[[0.0, 0.0], [0.5, 0.9]], noise_cov=np.eye(2))
        e = EmbedSpec(source_history=2, target_history=2, delay=1)
        rec = simulate(model, N, seed=8)
        te = transfer_entropy(rec.channels[1], rec.channels[0], e)
        assert te <= 10 * plug_in_bias(N, 2, 1) + 1e-4

    def test_affine_invariance(self):
        rng = np.random.default_rng(9)
        model = VarModel(transition=[[0.0, 0.0], [0.5, 0.9]], noise_cov=np.eye(2))
        rec = simulate(model, 20_000, seed=9)
        e = EmbedSpec(source_history=3, target_history=3, delay=1)
        x, z = rec.channels
        base = transfer_entropy(x, z, e)
        for _ in range(20):
            a, c = rng.uniform(0.1, 10, size=2) * rng.choice([-1.0, 1.0], size=2)
            b, d = rng.uniform(-5, 5, size=2)
            mapped = transfer_entropy(
                x.with_samples(a * x.samples + b), z.with_samples(c * z.samples + d), e
            )
            assert abs(mapped - base) < 1e-9

    def test_extra_history_adds_nothing_for_markov_source(self):
        model = VarModel(transition=[[0.0, 0.0], [0.5, 0.9]], noise_cov=np.eye(2))
        rec = simulate(model, N, seed=10)
        te1 = transfer_entropy(
            rec.channels[0], rec.channels[1], EmbedSpec(1, 1, 1)
        )
        te4 = transfer_entropy(
            rec.channels[0], rec.channels[1], EmbedSpec(4, 4, 1)
        )
        assert abs(te1 - te4) < 0.005 + 3 * plug_in_bias(N, 4, 1)

    def test_data_processing_chain(self):
        # phi -> x -> z: information about phi in z went through x
        a = np.array(
            [
                [0.6, 0.0, 0.0],
                [0.5, 0.4, 0.0],
                [0.0, 0.5, 0.3],
            ]
        )
        model = VarModel(transition=a, noise_cov=np.eye(3))
        rec = simulate(model, N, seed=11)
        e = EmbedSpec(source_history=4, target_history=4, delay=1)
        te_phi_z = transfer_entropy(rec.channels[0], rec.channels[2], e)
        te_x_z = transfer_entropy(rec.channels[1], rec.channels[2], e)
        assert te_phi_z <= te_x_z + 0.01

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            transfer_entropy(ts(np.zeros(50)), ts(np.zeros(60)), EmbedSpec(1, 1, 1))

    def test_series_too_short(self):
        rng = np.random.default_rng(12)
        e = EmbedSpec(source_history=8, target_history=8, delay=1)
        with pytest.raises(SeriesTooShort):
            transfer_entropy(ts(rng.standard_normal(30)), ts(rng.standard_normal(30)), e)


class TestTransferEntropiesKernel:
    """The shared lag-moment kernel against one-at-a-time estimates."""

    MODEL = VarModel(
        transition=[[0.5, 0.0, 0.0], [0.4, 0.6, 0.0], [0.0, 0.3, 0.2]],
        noise_cov=np.eye(3),
        labels=("a", "b", "c"),
    )

    def test_matches_gaussian_cmi_on_te_blocks(self):
        rng = np.random.default_rng(20)
        for trial in range(60):
            e = EmbedSpec(
                source_history=int(rng.integers(1, 9)),
                target_history=int(rng.integers(1, 9)),
                delay=int(rng.integers(1, 5)),
            )
            n = int(rng.choice([150, 1_000, 6_000]))
            rec = simulate(self.MODEL, n, seed=trial, rate_hz=64.0)
            pairs = [(0, 1), (1, 0), (1, 2), (0, 2)]
            kernel = transfer_entropies(rec.samples, pairs, e, rec.labels)
            for value, (i, j) in zip(kernel, pairs):
                x, y, c = te_blocks(rec.samples[i], rec.samples[j], e)
                assert abs(value - gaussian_cmi(x, y, c)) <= 1e-12, (e, n, i, j)

    def test_k_pair_call_equals_one_pair_calls(self):
        rec = simulate(self.MODEL, 3_000, seed=21, rate_hz=64.0)
        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        for e in (EmbedSpec(3, 5, 2), EmbedSpec(6, 2, 4), EmbedSpec(1, 1, 1)):
            many = transfer_entropies(rec.samples, pairs, e, rec.labels)
            one = [transfer_entropy(rec.channels[i], rec.channels[j], e) for i, j in pairs]
            assert many.tolist() == one

    def test_degenerate_pair_is_named(self):
        rec = simulate(self.MODEL, 2_000, seed=23, rate_hz=64.0)
        a, b, _ = rec.samples
        e = EmbedSpec(2, 2, 1)
        with pytest.raises(DegenerateCovariance, match="a->copy"):
            transfer_entropies(np.vstack((a, b, a)), [(0, 1), (0, 2)], e, ("a", "b", "copy"))
        with pytest.raises(DegenerateCovariance, match="S->C"):
            transfer_entropies(np.vstack((a, a)), [(0, 1)], e, ("S", "C"))

    def test_degenerate_pair_carries_its_index(self):
        rec = simulate(self.MODEL, 2_000, seed=23, rate_hz=64.0)
        a, b, _ = rec.samples
        pairs = [(0, 1), (1, 0), (0, 2), (2, 0)]
        with pytest.raises(DegenerateCovariance, match="a->copy") as caught:
            transfer_entropies(np.vstack((a, b, a)), pairs, EmbedSpec(2, 2, 1), ("a", "b", "copy"))
        assert caught.value.index == 2

    def test_overflowing_pair_is_named(self):
        rec = simulate(self.MODEL, 2_000, seed=25, rate_hz=64.0)
        a, b, _ = rec.samples
        x = np.vstack((a, b, b * 1e200))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DegenerateCovariance, match="TE a->huge is not finite"
        ):
            transfer_entropies(x, [(0, 1), (0, 2)], EmbedSpec(2, 2, 1), ("a", "b", "huge"))

    def test_length_mismatch_and_short_series(self):
        rng = np.random.default_rng(24)
        e = EmbedSpec(2, 2, 1)
        with pytest.raises(ShapeMismatch):
            transfer_entropy(ts(rng.standard_normal(50)), ts(rng.standard_normal(60)), e)
        with pytest.raises(ShapeMismatch):
            transfer_entropy(ts(rng.standard_normal(50)), TimeSeries("y", 128.0, rng.standard_normal(50)), e)
        with pytest.raises(SeriesTooShort):
            transfer_entropies(rng.standard_normal((2, 12)), [(0, 1)], e, ("x", "y"))


class TestClosedFormAccuracy:
    """The kernel's rounding error on covariances shaped like a 16/16 TE whose
    CMI is known in closed form."""

    @staticmethod
    def envelope_autocovariance(lags):
        """Toeplitz autocovariance of the unit-variance envelope AR(2)."""
        a1, a2 = synth._ENV_A1, synth._ENV_A2
        rho = [1.0, a1 / (1.0 - a2)]
        while len(rho) < lags:
            rho.append(a1 * rho[-1] + a2 * rho[-2])
        return toeplitz(rho[:lags])

    def test_small_cmi_to_1e13_bits(self):
        # C: 16 envelope lags; X = A C + N; y = b'X + c'C + eps, so
        # I(X; y | C) = 0.5 log2(1 + b' S_N b / var_eps) exactly.
        d = 16
        rng = np.random.default_rng(30)
        gamma = self.envelope_autocovariance(d)
        covs, exact = [], []
        for _ in range(200):
            a = rng.standard_normal((d, d)) / math.sqrt(d)
            m = rng.standard_normal((d, d))
            noise = m @ m.T / d + 0.1 * np.eye(d)
            b = rng.standard_normal(d)
            b *= 10.0 ** rng.uniform(-3, -1) / np.linalg.norm(b)
            c = rng.standard_normal(d)
            t = np.eye(2 * d + 1)
            t[d : 2 * d, :d] = a
            t[-1, :d], t[-1, d : 2 * d] = c + b @ a, b
            cov = t @ block_diag(gamma, noise, [[1.0]]) @ t.T
            covs.append(0.5 * (cov + cov.T))
            exact.append(0.5 * math.log1p(b @ noise @ b) / math.log(2))
        values = _cmi_bits(np.stack(covs), d, 1, ["model"] * len(covs))
        assert np.abs(values - np.array(exact)).max() <= 1e-13


class TestPlugInBias:
    def test_bias_formula(self):
        assert plug_in_bias(100, 2, 3) == pytest.approx(6 / (200 * math.log(2)))
