"""Ridge decoder training, reconstruction, correlation, cross-validation."""

import json
import pickle

import numpy as np
import pytest
import scipy.linalg

from redflow import decoder
from redflow.decoder import (
    Decoder,
    fit_decoders,
    load_decoder,
    pearson,
    reconstruct,
    save_decoder,
    train,
)
from redflow.errors import (
    ChannelOrderMismatch,
    DataError,
    InsufficientTrials,
    ShapeMismatch,
    SingularSystem,
    ZeroVarianceSignal,
)
from redflow.signals import LagWindow, MultichannelRecording, TimeSeries, lag_valid_slice, normalize


def ts(values, rate=64.0, label="x"):
    return TimeSeries(label, rate, values)


def recording(arrays, rate=64.0, labels=None):
    labels = labels or [f"c{i}" for i in range(len(arrays))]
    return MultichannelRecording(labels, rate, arrays)


def planted_trial(rng, n, n_channels=3, window=LagWindow(0, 16), scale=0.1, snr=10.0):
    """Channels, true (lag x channel) weights, and the noisy stimulus."""
    rec = recording([rng.standard_normal(n) for _ in range(n_channels)])
    g_true = scale * rng.standard_normal((window.n_lags, n_channels))
    design = decoder.build_design(rec, window)
    signal = design @ g_true.T.reshape(-1)
    noise_sd = float(np.std(signal)) / np.sqrt(snr)
    target = np.zeros(n)
    target[lag_valid_slice(n, window)] = signal + noise_sd * rng.standard_normal(signal.size)
    return rec, g_true, ts(target, label="s")


class TestBuildDesign:
    def test_stacks_per_channel_lag_embeddings(self):
        rng = np.random.default_rng(30)
        for w in (LagWindow(0, 16), LagWindow(-3, 2), LagWindow(0, 0)):
            rec = recording([rng.standard_normal(200) for _ in range(4)])
            expected = np.hstack([decoder.build_design(recording([ch.samples]), w) for ch in rec.channels])
            assert np.array_equal(decoder.build_design(rec, w), expected)


class TestTrain:
    def test_exact_scalar_regression(self):
        r = recording([[1.0, 2.0, 3.0]])
        s = ts([2.0, 4.0, 6.0], label="s")
        d = train(r, s, LagWindow(0, 0), 0.0)
        np.testing.assert_allclose(d.weights, [[2.0]], atol=1e-12)

    def test_heavy_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        n = 10000
        r = recording([rng.standard_normal(n), rng.standard_normal(n)])
        s = ts(rng.standard_normal(n), label="s")
        d = train(r, s, LagWindow(0, 4), 1e9)
        assert np.max(np.abs(d.weights)) < 1e-3

    def test_planted_weight_recovery(self):
        rng = np.random.default_rng(42)
        rec, g_true, s = planted_trial(rng, 10000)
        d = train(rec, s, LagWindow(0, 16), 0.0)
        assert np.max(np.abs(d.weights - g_true)) < 1e-2

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        r = recording([x, x])  # duplicate content, distinct labels
        s = ts(rng.standard_normal(200), label="s")
        with pytest.raises(SingularSystem):
            train(r, s, LagWindow(0, 2), 0.0)

    def test_rate_mismatch(self):
        r = recording([[1.0, 2.0, 3.0]])
        s = TimeSeries("s", 32.0, [1.0, 2.0, 3.0])
        with pytest.raises(ShapeMismatch):
            train(r, s, LagWindow(0, 0), 0.0)

    def test_length_mismatch(self):
        r = recording([[1.0, 2.0, 3.0]])
        with pytest.raises(ShapeMismatch):
            train(r, ts([1.0, 2.0], label="s"), LagWindow(0, 0), 0.0)

    def test_negative_lambda(self):
        r = recording([[1.0, 2.0, 3.0]])
        with pytest.raises(ShapeMismatch):
            train(r, ts([1.0, 2.0, 3.0], label="s"), LagWindow(0, 0), -1.0)

    def test_ridge_norm_monotone_in_lambda(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rec, _, s = planted_trial(rng, 2000)
            norms = [
                np.linalg.norm(train(rec, s, LagWindow(0, 16), lam).weights)
                for lam in (10.0**k for k in range(-6, 7))
            ]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_equals_direct_cholesky_solve(self):
        rng = np.random.default_rng(7)
        for w, lam in ((LagWindow(0, 16), 0.0), (LagWindow(-3, 4), 0.37), (LagWindow(0, 8), 1e4)):
            rec, _, s = planted_trial(rng, 900, window=w)
            design = decoder.build_design(rec, w)
            target = s.samples[lag_valid_slice(900, w)]
            cho = scipy.linalg.cho_factor(
                design.T @ design + lam * np.eye(design.shape[1]), lower=True
            )
            expected = scipy.linalg.cho_solve(cho, design.T @ target)
            assert np.array_equal(train(rec, s, w, lam).flat_weights, expected)

    def test_failed_factorization_raises_naming_lambda(self):
        # exact duplicate channels: lambda below the rounding of the Gram
        # leaves a zero pivot, and no jitter is added to hide it
        x = [1.0, -1.0, 1.0, -1.0]
        r = recording([x, x])
        s = ts([0.5, -1.0, 2.0, 0.0], label="s")
        for lam in (1e-300, 1e-20):
            with pytest.raises(SingularSystem, match=f"lambda={lam!r}"):
                train(r, s, LagWindow(0, 0), lam)

    def test_recovery_error_shrinks_with_n(self):
        errs = {1000: [], 100000: []}
        for seed in range(20):
            for n in errs:
                rng = np.random.default_rng(1000 + seed)
                rec, g_true, s = planted_trial(rng, n)
                d = train(rec, s, LagWindow(0, 16), 0.0)
                errs[n].append(np.max(np.abs(d.weights - g_true)))
        assert np.median(errs[100000]) < np.median(errs[1000])


class TestReconstruct:
    def test_scalar(self):
        d = Decoder(
            weights=[[2.0]], lag_window=LagWindow(0, 0), lam=0.0,
            channel_labels=("c0",), train_rate_hz=64.0,
        )
        out = reconstruct(d, recording([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out.samples, [2.0, 4.0, 6.0])

    def test_training_data_residual_matches_lstsq(self):
        rng = np.random.default_rng(5)
        rec, _, s = planted_trial(rng, 3000)
        w = LagWindow(0, 16)
        d = train(rec, s, w, 0.0)
        shat = reconstruct(d, rec)
        target = s.samples[lag_valid_slice(3000, w)]
        design = decoder.build_design(rec, w)
        flat, *_ = np.linalg.lstsq(design, target, rcond=None)
        resid_ours = target - shat.samples
        resid_lstsq = target - design @ flat
        np.testing.assert_allclose(resid_ours, resid_lstsq, atol=1e-8)

    @pytest.mark.parametrize("window", [LagWindow(-5, 3), LagWindow(0, 7), LagWindow(2, 9)], ids=str)
    def test_equals_design_product(self, window):
        rng = np.random.default_rng(12)
        rec = recording(list(rng.standard_normal((4, 400))))
        d = Decoder(
            weights=rng.standard_normal((window.n_lags, 4)), lag_window=window, lam=1.0,
            channel_labels=rec.labels, train_rate_hz=64.0,
        )
        expected = decoder.build_design(rec, window) @ d.flat_weights
        # the sums run in another order, so equal up to rounding
        error = np.max(np.abs(reconstruct(d, rec).samples - expected))
        assert error <= 1e-12 * np.max(np.abs(expected))

    def test_zero_weights_degenerate_on_normalize(self):
        d = Decoder(
            weights=[[0.0]], lag_window=LagWindow(0, 0), lam=0.0,
            channel_labels=("c0",), train_rate_hz=64.0,
        )
        out = reconstruct(d, recording([[1.0, 2.0, 3.0]]))
        with pytest.raises(ZeroVarianceSignal):
            normalize(out)

    def test_channel_order_mismatch(self):
        rng = np.random.default_rng(0)
        rec = recording([rng.standard_normal(50), rng.standard_normal(50)], labels=["a", "b"])
        d = train(rec, ts(rng.standard_normal(50), label="s"), LagWindow(0, 1), 1.0)
        swapped = MultichannelRecording(rec.labels[::-1], rec.rate_hz, rec.samples[::-1])
        with pytest.raises(ChannelOrderMismatch):
            reconstruct(d, swapped)

    def test_rate_mismatch(self):
        d = Decoder(
            weights=[[1.0]], lag_window=LagWindow(0, 0), lam=0.0,
            channel_labels=("c0",), train_rate_hz=128.0,
        )
        with pytest.raises(ShapeMismatch):
            reconstruct(d, recording([[1.0, 2.0]]))

    def test_held_in_not_worse_than_held_out(self):
        # in the overfitting regime (51 parameters, ~480 rows, snr 1) the
        # training-data correlation beats a fresh trial from the same model
        wins = 0
        seeds = 20
        w = LagWindow(0, 16)
        n = 500

        def make_trial(r, g):
            rec = recording([r.standard_normal(n) for _ in range(3)])
            design = decoder.build_design(rec, w)
            signal = design @ g
            t = np.zeros(n)
            t[lag_valid_slice(n, w)] = signal + np.std(signal) * r.standard_normal(signal.size)
            return rec, ts(t, label="s")

        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            g = 0.1 * rng.standard_normal(3 * w.n_lags)
            rec1, s1 = make_trial(rng, g)
            rec2, s2 = make_trial(np.random.default_rng(1000 + seed), g)
            d = train(rec1, s1, w, 0.0)
            rho_in = pearson(reconstruct(d, rec1), ts(s1.samples[lag_valid_slice(n, w)]))
            rho_out = pearson(reconstruct(d, rec2), ts(s2.samples[lag_valid_slice(n, w)]))
            if rho_in >= rho_out:
                wins += 1
        assert wins >= int(0.95 * seeds)


class TestPearson:
    def test_identical(self):
        x = ts([1.0, -2.0, 3.0])
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negated(self):
        x = ts([1.0, -2.0, 3.0])
        y = ts([-1.0, 2.0, -3.0])
        assert pearson(x, y) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        a = ts([1.0, 1.0, -1.0, -1.0])
        b = ts([1.0, -1.0, 1.0, -1.0])
        assert abs(pearson(a, b)) < 1e-12

    def test_constant_raises(self):
        with pytest.raises(ZeroVarianceSignal):
            pearson(ts([1.0, 1.0]), ts([1.0, 2.0]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            pearson(ts([1.0, 2.0]), ts([1.0, 2.0, 3.0]))

    def test_mse_correlation_identity(self):
        # for normalized series, half the mean squared error equals 1 - rho
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(64, 2000))
            a = normalize(ts(rng.standard_normal(n)))
            b = normalize(ts(rng.standard_normal(n) + rng.uniform(-1, 1) * a.samples))
            lhs = 0.5 * float(np.mean((a.samples - b.samples) ** 2))
            assert abs(lhs - (1.0 - pearson(a, b))) < 1e-12


class TestCrossValidate:
    def _trials(self, rng, n_trials, n=1200, snr=4.0, w=LagWindow(0, 8)):
        g_true = 0.1 * rng.standard_normal((w.n_lags, 2))
        trials = []
        for _ in range(n_trials):
            rec = recording([rng.standard_normal(n), rng.standard_normal(n)])
            design = decoder.build_design(rec, w)
            signal = design @ g_true.T.reshape(-1)
            noise_sd = float(np.std(signal)) / np.sqrt(snr)
            t = np.zeros(n)
            t[lag_valid_slice(n, w)] = signal + noise_sd * rng.standard_normal(signal.size)
            trials.append((rec, ts(t, label="s")))
        return trials

    @staticmethod
    def _fit(trials, lambdas, w=LagWindow(0, 8)):
        """``fit_decoders`` on (recording, targets) trials: its one
        (decoder, curve) pair per target."""
        stats = [decoder.trial_stats(rec, targets, w) for rec, targets in trials]
        return fit_decoders(stats, lambdas, w, trials[0][0].labels, 64.0)

    @classmethod
    def _cross_validate(cls, trials, lambdas):
        """The chosen lambda and the curve of one-target trials."""
        ((fitted, curve),) = cls._fit([(rec, [s]) for rec, s in trials], lambdas)
        return fitted.lam, curve

    def test_singleton_grid(self):
        rng = np.random.default_rng(2)
        best, curve = self._cross_validate(self._trials(rng, 3), [0.37])
        assert best == 0.37
        assert len(curve) == 1

    def test_needs_two_trials(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InsufficientTrials):
            self._cross_validate(self._trials(rng, 1), [1.0])

    def test_duplicate_trials_prefer_unregularized(self):
        rng = np.random.default_rng(3)
        trial = self._trials(rng, 1)[0]
        best, curve = self._cross_validate([trial, trial], [0.0, 1e6])
        assert best == 0.0
        assert curve[0] > curve[1]

    def test_recovers_noise_ceiling(self):
        # noise ceiling for the generative snr: rho_max = sqrt(snr / (1 + snr))
        rng = np.random.default_rng(4)
        snr = 4.0
        trials = self._trials(rng, 8, n=4000, snr=snr)
        best, curve = self._cross_validate(trials, [10.0**k for k in range(-4, 5)])
        ceiling = np.sqrt(snr / (1.0 + snr))
        assert abs(max(curve) - ceiling) < 0.05

    def test_constant_held_out_target_raises(self):
        rng = np.random.default_rng(22)
        trials = self._trials(rng, 3)
        rec, s = trials[1]
        trials[1] = (rec, ts(np.ones(len(s)), label="s"))
        with pytest.raises(ZeroVarianceSignal):
            self._cross_validate(trials, [1.0])

    def test_ties_break_to_larger_lambda(self):
        from redflow.decoder import select_best_lambda

        assert select_best_lambda([1.0, 10.0, 100.0], [0.5, 0.5, 0.3]) == 10.0
        assert select_best_lambda([100.0, 1.0], [0.5, 0.5]) == 100.0
        assert select_best_lambda([1.0, 10.0], [0.6, 0.5]) == 1.0

    def test_two_targets_equal_two_single_target_fits(self):
        rng = np.random.default_rng(24)
        first, second = self._trials(rng, 4), self._trials(rng, 4)
        grid = [10.0**k for k in range(-3, 4)]
        # second's targets on first's recordings: one system, two targets
        both = self._fit([(rec, [s, t]) for (rec, s), (_, t) in zip(first, second)], grid)
        singles = [
            self._fit([(rec, [s]) for (rec, _), (_, s) in zip(first, targets)], grid)[0]
            for targets in (first, second)
        ]
        assert len(both) == 2
        for (got, got_curve), (want, want_curve) in zip(both, singles):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.lam == want.lam and got_curve == want_curve
            assert (got.lag_window, got.channel_labels) == (want.lag_window, want.channel_labels)

    def test_constant_held_out_target_names_its_index(self):
        rng = np.random.default_rng(22)
        trials = [(rec, [s, s]) for rec, s in self._trials(rng, 3)]
        rec, (s, _) = trials[1]
        trials[1] = (rec, [s, ts(np.ones(len(s)), label="s")])
        with pytest.raises(ZeroVarianceSignal) as caught:
            self._fit(trials, [1.0])
        assert caught.value.target == 1


class TestSufficientStatistics:
    def test_held_out_rho_matches_pearson_of_prediction(self):
        rng = np.random.default_rng(21)
        for w in (LagWindow(0, 8), LagWindow(-3, 2), LagWindow(-4, 0)):
            for _ in range(10):
                n = int(rng.integers(100, 2000))
                k = int(rng.integers(1, 5))
                train_rec = recording([rng.standard_normal(n) for _ in range(k)])
                test_rec = recording([rng.uniform(-1, 1) + rng.standard_normal(n) for _ in range(k)])
                stim = ts(rng.uniform(-1, 1) + rng.standard_normal(n), label="s")
                held = decoder.trial_stats(test_rec, [stim], w)
                for lam in (0.0, 1e-3, 1.0, 1e3):
                    g = train(train_rec, ts(rng.standard_normal(n), label="s"), w, lam).flat_weights
                    prediction = ts(decoder.build_design(test_rec, w) @ g)
                    expected = pearson(prediction, ts(stim.samples[lag_valid_slice(n, w)]))
                    assert abs(decoder._held_out_rho(held, 0, g) - expected) < 1e-12

    def test_two_stimuli_equal_two_single_calls(self):
        rng = np.random.default_rng(23)
        rec = recording([rng.standard_normal(500) for _ in range(3)])
        stims = [ts(rng.standard_normal(500), label=f"s{i}") for i in range(2)]
        w = LagWindow(-2, 6)
        both = decoder.trial_stats(rec, stims, w)
        assert both.rhs.shape == (2, 3 * w.n_lags)
        for k, s in enumerate(stims):
            want = decoder.trial_stats(rec, [s], w)
            for field in ("gram", "col_sums"):
                assert np.array_equal(getattr(both, field), getattr(want, field))
            assert np.array_equal(both.rhs[k], want.rhs[0])
            assert (both.target_sum[k], both.target_css[k], both.n) == (
                want.target_sum[0], want.target_css[0], want.n
            )


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        rec, _, s = planted_trial(rng, 800, window=LagWindow(-2, 5))
        d = train(rec, s, LagWindow(-2, 5), 0.5)
        path = tmp_path / "dec.json"
        save_decoder(d, path, extra_meta={"note": "test"})
        back = load_decoder(path)
        np.testing.assert_array_equal(back.weights, d.weights)
        assert back.lag_window == d.lag_window
        assert back.lam == d.lam
        assert back.channel_labels == d.channel_labels
        assert back.train_rate_hz == d.train_rate_hz

    def test_pickle_round_trip_stays_read_only(self):
        rng = np.random.default_rng(7)
        rec, _, s = planted_trial(rng, 400, window=LagWindow(-1, 3))
        d = train(rec, s, LagWindow(-1, 3), 0.5)
        back = pickle.loads(pickle.dumps(d))
        np.testing.assert_array_equal(back.weights, d.weights)
        assert (back.lag_window, back.lam, back.channel_labels, back.train_rate_hz) == (
            d.lag_window, d.lam, d.channel_labels, d.train_rate_hz
        )
        assert not back.weights.flags.writeable
        with pytest.raises(ValueError):
            back.weights[0, 0] = 1.0

    def test_reads_files_with_solver_jitter(self, tmp_path):
        rng = np.random.default_rng(8)
        rec, _, s = planted_trial(rng, 400, window=LagWindow(0, 4))
        d = train(rec, s, LagWindow(0, 4), 1.0)
        path = tmp_path / "dec.json"
        save_decoder(d, path)
        doc = json.loads(path.read_text())
        assert "solver_jitter" not in doc
        doc["solver_jitter"] = 0.0
        path.write_text(json.dumps(doc))
        np.testing.assert_array_equal(load_decoder(path).weights, d.weights)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "dec.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(DataError):
            load_decoder(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_decoder(tmp_path / "none.json")
