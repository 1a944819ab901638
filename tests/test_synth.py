"""VAR simulation, Lyapunov oracles, and the listening-experiment scenario."""

import hashlib
import math
import mmap
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from redflow import cli, decoder, signals, synth
from redflow.errors import ConfigError, ShapeMismatch, UnstableModel
from redflow.infotheory import EmbedSpec, transfer_entropy, plug_in_bias
from redflow.synth import (
    AadScenario,
    VarModel,
    analytic_te,
    burn_in_length,
    lag_covariance,
    make_aad_scenario,
    simulate,
    stationary_covariance,
)


def random_stable_model(rng, dim, max_radius=0.95):
    a = rng.standard_normal((dim, dim))
    target = rng.uniform(0.3, max_radius)
    a *= target / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((dim, dim))
    q = b @ b.T + 0.5 * np.eye(dim)
    q /= np.trace(q) / dim
    return VarModel(transition=a, noise_cov=q)


class TestVarModel:
    def test_unstable_rejected(self):
        with pytest.raises(UnstableModel):
            VarModel(transition=[[1.01]], noise_cov=[[1.0]])

    def test_noise_cov_must_be_pd(self):
        with pytest.raises(ShapeMismatch):
            VarModel(transition=[[0.5, 0], [0, 0.5]], noise_cov=[[1.0, 2.0], [2.0, 1.0]])

    def test_label_count(self):
        with pytest.raises(ShapeMismatch):
            VarModel(transition=[[0.5]], noise_cov=[[1.0]], labels=("a", "b"))

    def test_default_labels(self):
        m = VarModel(transition=np.zeros((2, 2)), noise_cov=np.eye(2))
        assert m.labels == ("x0", "x1")


class TestStationaryCovariance:
    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = random_stable_model(rng, int(rng.integers(2, 6)))
            s = stationary_covariance(m)
            resid = np.max(np.abs(s - m.transition @ s @ m.transition.T - m.noise_cov))
            assert resid < 1e-12

    def test_scalar_ar1_variance(self):
        m = VarModel(transition=[[0.9]], noise_cov=[[1.0]])
        s = stationary_covariance(m)
        assert abs(s[0, 0] - 1.0 / (1.0 - 0.81)) < 1e-10

    def test_near_unit_root(self):
        m = VarModel(transition=np.diag([0.99999, 0.5]), noise_cov=np.eye(2))
        s = stationary_covariance(m)
        np.testing.assert_allclose(np.diag(s), [1.0 / (1.0 - 0.99999**2), 1.0 / 0.75], rtol=1e-12)
        assert s[0, 1] == s[1, 0] == 0.0

    def test_matches_scipy_lyapunov(self):
        # scipy is the oracle here only; the package does not import it
        from scipy.linalg import solve_discrete_lyapunov

        rng = np.random.default_rng(0)
        models = [random_stable_model(rng, dim) for dim in range(2, 6) for _ in range(5)]
        models.append(VarModel(transition=np.diag([0.99999, 0.5]), noise_cov=np.eye(2)))
        for m in models:
            want = solve_discrete_lyapunov(m.transition, m.noise_cov)
            want = 0.5 * (want + want.T)
            err = np.max(np.abs(stationary_covariance(m) - want))
            assert err <= 1e-12 * np.max(np.abs(want))

    def test_lag_covariance_geometric(self):
        m = VarModel(transition=[[0.7]], noise_cov=[[1.0]])
        s0 = stationary_covariance(m)
        np.testing.assert_allclose(lag_covariance(m, s0, 3), 0.7**3 * s0, rtol=1e-12)
        np.testing.assert_allclose(lag_covariance(m, s0, -3), 0.7**3 * s0, rtol=1e-12)


class TestSimulate:
    def test_iid_channels_match_noise_cov(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 3))
        q = b @ b.T + 0.5 * np.eye(3)
        m = VarModel(transition=np.zeros((3, 3)), noise_cov=q)
        rec = simulate(m, 100_000, seed=5)
        emp = np.cov(rec.to_array().T, bias=True)
        assert np.max(np.abs(emp - q)) / np.max(np.abs(q)) < 0.02

    def test_scalar_ar1_stationary_variance(self):
        m = VarModel(transition=[[0.9]], noise_cov=[[1.0]])
        rec = simulate(m, 100_000, seed=6)
        var = float(np.var(rec.channels[0].samples))
        expected = 1.0 / (1.0 - 0.81)
        assert abs(var - expected) / expected < 0.02

    def test_same_seed_bit_identical(self):
        m = VarModel(transition=[[0.5, 0.1], [0.0, 0.6]], noise_cov=np.eye(2))
        a = simulate(m, 500, seed=42)
        b = simulate(m, 500, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        m = VarModel(transition=[[0.5]], noise_cov=[[1.0]])
        assert simulate(m, 100, seed=1) != simulate(m, 100, seed=2)

    def test_burn_in_length(self):
        m = VarModel(transition=[[0.9]], noise_cov=[[1.0]])
        assert burn_in_length(m) == math.ceil(10.0 / -math.log(0.9))
        m0 = VarModel(transition=[[0.0]], noise_cov=[[1.0]])
        assert burn_in_length(m0) == 0

    def test_stationarity_halves(self):
        m = VarModel(transition=[[0.9]], noise_cov=[[1.0]])
        x = simulate(m, 100_000, seed=7).channels[0].samples
        v1 = np.var(x[: 50_000])
        v2 = np.var(x[50_000:])
        assert abs(v1 - v2) / max(v1, v2) < 0.05


class TestAnalyticTe:
    def test_decoupled_coordinates_zero(self):
        m = VarModel(
            transition=[[0.8, 0.0], [0.0, 0.6]],
            noise_cov=[[1.0, 0.0], [0.0, 2.0]],
        )
        e = EmbedSpec(source_history=3, target_history=3, delay=1)
        assert analytic_te(m, 0, 1, e) <= 1e-12

    def test_hand_formula(self):
        m = VarModel(transition=[[0.0, 0.0], [0.5, 0.9]], noise_cov=np.eye(2))
        e = EmbedSpec(source_history=1, target_history=1, delay=1)
        assert abs(analytic_te(m, 0, 1, e) - 0.5 * math.log2(1.25)) < 1e-12

    def test_reverse_direction_zero(self):
        m = VarModel(transition=[[0.0, 0.0], [0.5, 0.9]], noise_cov=np.eye(2))
        e = EmbedSpec(source_history=2, target_history=2, delay=1)
        assert analytic_te(m, 1, 0, e) <= 1e-12

    def test_estimator_matches_oracle_battery(self):
        rng = np.random.default_rng(20250809)
        e = EmbedSpec(source_history=4, target_history=4, delay=1)
        for i in range(3):
            dim = int(rng.integers(2, 5))
            m = random_stable_model(rng, dim)
            src, tgt = (int(v) for v in rng.choice(dim, size=2, replace=False))
            oracle = analytic_te(m, src, tgt, e)
            rec = simulate(m, 100_000, seed=500 + i)
            est = transfer_entropy(rec.channels[src], rec.channels[tgt], e)
            assert abs(est - oracle) < max(0.005, 3 * plug_in_bias(100_000, 4))


class TestScenarioRecursions:
    def test_ar2_filter_matches_explicit_recursion(self):
        rng = np.random.default_rng(2)
        noise = rng.standard_normal(200)
        a1, a2 = 1.1, -0.3
        out = synth._ar_filter(noise.copy(), (a1, a2))
        ref = np.zeros(200)
        for t in range(200):
            ref[t] = noise[t]
            if t >= 1:
                ref[t] += a1 * ref[t - 1]
            if t >= 2:
                ref[t] += a2 * ref[t - 2]
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_ar1_filter_matches_explicit_recursion(self):
        rng = np.random.default_rng(3)
        drive = rng.standard_normal(150)
        out = synth._ar_filter(drive.copy(), (0.45,))
        ref = np.zeros(150)
        for t in range(150):
            ref[t] = drive[t] + (0.45 * ref[t - 1] if t else 0.0)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_filters_equal_lfilter_bit_for_bit(self):
        from scipy.signal import lfilter

        rng = np.random.default_rng(7)
        for _ in range(60):
            # two real poles or a complex pair, all inside radius 0.98
            if rng.random() < 0.5:
                p, q = rng.uniform(-0.98, 0.98, 2)
                a1, a2 = p + q, -p * q
            else:
                radius, angle = rng.uniform(0.1, 0.98), rng.uniform(0.0, np.pi)
                a1, a2 = 2 * radius * np.cos(angle), -radius**2
            series = rng.standard_normal((int(rng.integers(1, 400)), int(rng.integers(1, 6))))
            for x in (series[:, 0], series):
                ref = lfilter([1.0], [1.0, -a1, -a2], x, axis=0)
                assert np.array_equal(synth._ar_filter(x.copy(), (a1, a2)), ref)
            rho = rng.uniform(-0.98, 0.98, series.shape[1])
            ref = np.column_stack([lfilter([1.0], [1.0, -r], col) for r, col in zip(rho, series.T)])
            assert np.array_equal(synth._ar_filter(series.copy(), (rho,)), ref)
            ref = lfilter([1.0], [1.0, -rho[0]], series[:, 0])
            assert np.array_equal(synth._ar_filter(series[:, 0].copy(), (rho[0],)), ref)

    def test_filters_run_in_place_on_a_strided_view(self):
        from scipy.signal import lfilter

        # the time-first view of a series-major buffer, as make_aad_scenario
        # filters it; 300 steps cross two tiles
        rng = np.random.default_rng(8)
        x = np.moveaxis(rng.standard_normal((2, 3, 300)), -1, 0)
        ref = lfilter([1.0], [1.0, -1.1, 0.3], x, axis=0)
        assert synth._ar_filter(x, (1.1, -0.3)) is x
        assert np.array_equal(x, ref)
        rho = np.array([0.2, 0.3, 0.4])
        ref = np.empty_like(x)
        for i, c in np.ndindex(2, 3):
            ref[:, i, c] = lfilter([1.0], [1.0, -rho[c]], x[:, i, c])
        assert synth._ar_filter(x, (rho,)) is x
        assert np.array_equal(x, ref)

    def test_envelope_innovation_scale_gives_unit_variance(self):
        a1, a2 = synth._ENV_A1, synth._ENV_A2
        scale = synth._ar2_unit_variance_scale(a1, a2)
        # oracle: stationary variance from the augmented VAR(1) Lyapunov solve
        m = VarModel(
            transition=[[a1, a2], [1.0, 0.0]],
            noise_cov=[[scale**2, 0.0], [0.0, 1e-12]],
        )
        s = stationary_covariance(m)
        assert abs(s[0, 0] - 1.0) < 1e-6


#: 75 trials, two generation batches (synth._SCENARIO_BATCH is 60).
TWO_BATCH_SCENARIO = AadScenario(n_samples=150, n_trials=25, n_subjects=3, n_channels=3, seed=4)
TWO_BATCH_DIGEST = "270719c6ed34bab9a750a5a78bbc5a7806001ae63dcc6139ef540ceb77b59d21"


def use_cpus(monkeypatch, n):
    """Make ``n`` CPUs look usable, so a pool uses up to ``n`` workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def samples_digest(trials) -> str:
    """SHA-256 over every trial's identity, series labels and sample bytes."""
    h = hashlib.sha256()
    for t in trials:
        h.update(f"{t.subject_id}/{t.trial_id}".encode())
        for series in (t.attended, t.distractor, *t.eeg.channels):
            h.update(series.label.encode())
            h.update(np.ascontiguousarray(series.samples, dtype="<f8").tobytes())
    return h.hexdigest()


def shared_mappings() -> int:
    """Anonymous shared mappings of this process (Linux: ``/dev/zero``)."""
    return Path("/proc/self/maps").read_text().count("/dev/zero")


class TestAadScenario:
    def test_invariants(self):
        with pytest.raises(ShapeMismatch):
            AadScenario(n_samples=50)
        with pytest.raises(ShapeMismatch):
            AadScenario(attended_coupling=-0.1)
        with pytest.raises(ShapeMismatch):
            AadScenario(observation_noise=0.0)

    def test_trial_count_stays_within_a_subjects_substreams(self):
        # trial substreams are keyed subject * 100_000 + trial: one more
        # trial would draw the next subject's first trial
        AadScenario(n_trials=100_000)
        with pytest.raises(ShapeMismatch, match="n_trials"):
            AadScenario(n_trials=100_001)
        with pytest.raises(ConfigError, match="n_trials"):
            cli.config_from_dict({"scenario": {"n_trials": 100_001}})

    def test_deterministic(self):
        sc = AadScenario(n_samples=400, n_trials=2, n_subjects=2, seed=9)
        a = make_aad_scenario(sc)
        b = make_aad_scenario(sc)
        assert len(a) == len(b) == 4
        for ta, tb in zip(a, b):
            assert ta.eeg == tb.eeg
            assert ta.attended == tb.attended
            assert ta.distractor == tb.distractor

    @pytest.mark.parametrize(
        "scenario, digest",
        [
            (AadScenario(n_samples=400, n_trials=3, n_subjects=2, seed=9),
             "e28d77934cb3caca660457cabf9b90d5311ab850f8f44a6a9b9a088673f956f6"),
            (AadScenario(n_samples=700, n_trials=4, n_subjects=2, n_channels=3, seed=5),
             "eb9a9fd6bf88338e22b36a8687d6d7ac28c57c826674e832f37e5613f8a7823e"),
            # 75 trials: a subject's trials fall in two filter batches
            (TWO_BATCH_SCENARIO, TWO_BATCH_DIGEST),
        ],
    )
    def test_samples_match_recorded_digest(self, scenario, digest, monkeypatch):
        # digests of the samples as generated with scipy.signal.lfilter; the
        # 75-trial case makes two batches, which run in a pool at 2 CPUs
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            assert samples_digest(make_aad_scenario(scenario)) == digest

    def test_subject_subset_matches_the_full_scenario(self, monkeypatch):
        # 75 trials: the full run filters them in batches of 60, which split
        # s03's trials; a subset is batched differently
        sc = TWO_BATCH_SCENARIO
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            full = make_aad_scenario(sc)
            for subjects in ([1], [2, 0], range(3), []):
                part = make_aad_scenario(sc, subjects=subjects)
                want = [t for s in subjects for t in full[25 * s : 25 * (s + 1)]]
                assert [(t.subject_id, t.trial_id) for t in part] == [
                    (t.subject_id, t.trial_id) for t in want
                ]
                for a, b in zip(part, want):
                    assert a.eeg == b.eeg and a.attended == b.attended and a.distractor == b.distractor
            for subjects in ([3], [-1]):
                with pytest.raises(ShapeMismatch, match="subjects must be in 0..2"):
                    make_aad_scenario(sc, subjects=subjects)
            for subjects in ([1, 1], [2, 0, 2]):
                with pytest.raises(ShapeMismatch, match=r"subjects must not repeat, got \["):
                    make_aad_scenario(sc, subjects=subjects)

    def test_import_leaves_scipy_signal_and_stats_unloaded(self):
        src = Path(synth.__file__).resolve().parents[1]
        code = (
            "import sys; import redflow, redflow.cli, redflow.synth; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_shapes_and_labels(self):
        sc = AadScenario(n_samples=300, n_trials=3, n_subjects=2, n_channels=6, seed=1)
        trials = make_aad_scenario(sc, rate_hz=64.0)
        assert len(trials) == 6
        t0 = trials[0]
        assert t0.eeg.labels == signals.LEFT_TEMPORAL_LABELS
        assert t0.eeg.n_samples == 300
        assert len(t0.attended) == 300
        assert t0.eeg.rate_hz == 64.0
        assert {t.subject_id for t in trials} == {"s01", "s02"}

    def test_attended_decodes_when_only_attended_couples(self):
        # planted-signal recoverability: with distractor coupling zero the
        # attended decoder clearly beats the distractor decoder
        gaps = []
        for seed in range(20):
            cfg = cli.RunConfig(
                n_subjects=1, n_trials=2, n_samples=10_000, seed=seed,
                attended_coupling=0.12, distractor_coupling=0.0,
                lag_window_ms=(0.0, 125.0), lambda_grid=(1.0, 100.0),
            )
            trials = synth.make_aad_scenario(cfg.scenario(), rate_hz=64.0)
            decs = cli.train_decoders(cfg, trials, ("attended", "distractor"))
            rho_att = max(decs[("s01", "attended")][1])
            rho_dst = max(decs[("s01", "distractor")][1])
            gaps.append(rho_att - rho_dst)
        assert np.median(gaps) > 0.2

    def test_no_coupling_no_decoding(self):
        # null bound: for independent autocorrelated series the correlation
        # estimator variance is (1/n) * sum_h rho_a(h) rho_b(h) (Bartlett),
        # which reduces to 1/n for white data
        def autocorr(x, max_lag=100):
            x = x - x.mean()
            denom = float(np.dot(x, x))
            return np.array(
                [np.dot(x[: len(x) - h], x[h:]) / denom for h in range(max_lag + 1)]
            )

        n = 10_000
        n_trials = 4
        for seed in (3, 4, 5):
            cfg = cli.RunConfig(
                n_subjects=1, n_trials=n_trials, n_samples=n, seed=seed,
                attended_coupling=0.0, distractor_coupling=0.0,
                lag_window_ms=(0.0, 125.0), lambda_grid=(100.0,),
            )
            trials = synth.make_aad_scenario(cfg.scenario(), rate_hz=64.0)
            decs = cli.train_decoders(cfg, trials, ("attended", "distractor"))
            for condition in ("attended", "distractor"):
                dec, curve = decs[("s01", condition)]
                mean_heldout_rho = curve[0]
                # per-fold null variance from the reconstruction/stimulus
                # autocorrelations, averaged over the held-out folds
                trial = trials[0]
                eeg = cli._prep_eeg(cfg, trial.eeg)
                shat = decoder.reconstruct(dec, eeg)
                stim = cli._stimulus(trial, condition)
                stim_valid = stim.samples[signals.lag_valid_slice(n, cfg.lag_window())]
                ra, rb = autocorr(shat.samples), autocorr(stim_valid)
                var_fold = (1.0 + 2.0 * float(np.dot(ra[1:], rb[1:]))) / len(shat)
                assert abs(mean_heldout_rho) < 3.0 * math.sqrt(var_fold / n_trials)

    def test_coupling_sweep_monotone(self):
        # median held-out rho and stimulus-to-reconstruction rate both rise
        # across a 5-point coupling sweep
        couplings = [0.03, 0.06, 0.12, 0.24, 0.48]
        med_rho, med_te = [], []
        embed = EmbedSpec(source_history=8, target_history=8, delay=1)
        for coupling in couplings:
            rhos, tes = [], []
            for seed in range(6):
                cfg = cli.RunConfig(
                    n_subjects=1, n_trials=4, n_samples=3200, seed=seed,
                    attended_coupling=coupling, distractor_coupling=0.0,
                    lag_window_ms=(0.0, 125.0), lambda_grid=(10.0, 1000.0),
                    embed_source_history=8, embed_target_history=8,
                )
                trials = synth.make_aad_scenario(cfg.scenario(), rate_hz=64.0)
                decs = cli.train_decoders(cfg, trials, ("attended",))
                records, _ = cli.compute_rates(cfg, trials, decs, ("attended",))
                rhos.extend(abs(r["rho"]) for r in records)
                tes.extend(r["r_s_to_shat"] for r in records)
            med_rho.append(float(np.median(rhos)))
            med_te.append(float(np.median(tes)))
        assert all(b > a for a, b in zip(med_rho, med_rho[1:]))
        assert all(b > a for a, b in zip(med_te, med_te[1:]))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers need the fork start method"
)
class TestScenarioWorkers:
    def test_batches_run_in_other_processes(self, tmp_path, monkeypatch):
        fill_batch = synth._fill_batch

        def fill_and_record(*args):
            (tmp_path / str(os.getpid())).touch()
            fill_batch(*args)

        monkeypatch.setattr(synth, "_fill_batch", fill_and_record)
        # the mapping counts need /proc; the pid and digest checks do not
        maps = Path("/proc/self/maps").is_file()
        before = shared_mappings() if maps else None
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            for path in tmp_path.iterdir():
                path.unlink()
            assert samples_digest(make_aad_scenario(TWO_BATCH_SCENARIO)) == TWO_BATCH_DIGEST
            pids = {int(path.name) for path in tmp_path.iterdir()}
            if n == 1:
                assert pids == {os.getpid()}
            else:
                assert pids and os.getpid() not in pids
            assert multiprocessing.active_children() == []
            assert not maps or shared_mappings() == before
        # where mmap has no MADV_REMOVE, no page is freed before the close
        monkeypatch.delattr(mmap, "MADV_REMOVE", raising=False)
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            assert samples_digest(make_aad_scenario(TWO_BATCH_SCENARIO)) == TWO_BATCH_DIGEST
            assert not maps or shared_mappings() == before

    @pytest.mark.skipif(not hasattr(mmap, "MADV_REMOVE"), reason="needs MADV_REMOVE")
    def test_read_batch_frees_every_whole_page_it_copied(self):
        # both batches of the 75-trial scenario, filled in-process in one
        # mapping; a trial takes 16,896 bytes, so trial boundaries fall
        # inside pages
        sc, page = TWO_BATCH_SCENARIO, mmap.PAGESIZE
        keys = [(s, tr) for s in range(sc.n_subjects) for tr in range(sc.n_trials)]
        params = {s: synth._subject_parameters(sc, s) for s in range(sc.n_subjects)}
        shape = synth._scenario_shape(sc, len(keys))
        trial_bytes = 8 * math.prod(shape[1:])
        batches = [(0, keys[:60]), (60, keys[60:])]
        trials = []
        with synth._shared_mapping(8 * math.prod(shape)) as mapping:
            for start, batch in batches:
                synth._fill_batch(sc, params, start, batch, mapping)
            for start, batch in batches:
                trials += synth._read_batch(sc, 64.0, start, batch, mapping)
                data = np.frombuffer(mapping, dtype=np.uint8)
                end = (start + len(batch)) * trial_bytes
                # every whole page below the batch's last trial's end is
                # freed; the bytes from that page boundary to the trial's end
                # keep their samples
                assert not data[: end // page * page].any()
                assert data[end // page * page : end].any()
                del data
        assert samples_digest(trials) == TWO_BATCH_DIGEST

    @pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="needs /proc/self/maps")
    def test_failed_batch_reraises_and_closes_every_mapping(self, monkeypatch):
        # the drive filter fails while the batch's arrays view its mapping
        ar_filter = synth._ar_filter

        def failing_drive_filter(y, taps):
            if len(taps) == 1:
                raise RuntimeError("planted")
            return ar_filter(y, taps)

        monkeypatch.setattr(synth, "_ar_filter", failing_drive_filter)
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            before = shared_mappings()
            with pytest.raises(RuntimeError, match="^planted$"):
                make_aad_scenario(TWO_BATCH_SCENARIO)
            assert shared_mappings() == before
            assert multiprocessing.active_children() == []
