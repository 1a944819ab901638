"""Rate bundles and the redundancy upper bound."""

import json

import numpy as np
import pytest

from redflow.cli import main
from redflow.errors import DegenerateCovariance, ShapeMismatch
from redflow.infotheory import EmbedSpec, plug_in_bias, te_blocks, transfer_entropy
from redflow.redundancy import RateBundle, directed_redundancy_bound
from redflow.signals import MultichannelRecording, TimeSeries
from redflow.synth import VarModel, analytic_te, simulate

N = 40_000
EMBED = EmbedSpec(source_history=2, target_history=2, delay=1)


def ts(values, label="x"):
    return TimeSeries(label, 64.0, values)


def driver_target_pair(seed, n=N, coupling=0.5):
    """Driver series and a target it feeds with one-sample delay."""
    model = VarModel(
        transition=[[0.0, 0.0], [coupling, 0.6]], noise_cov=np.eye(2),
        labels=("drv", "tgt"),
    )
    rec = simulate(model, n, seed=seed, rate_hz=64.0)
    return rec.channels[0], rec.channels[1]


def bundle(r_s_to_shat, r_e_to_shat, r_s_to_e):
    return RateBundle(
        r_s_to_shat=r_s_to_shat, r_e_to_shat=r_e_to_shat, r_s_to_e=r_s_to_e,
        argmin_channel_e_to_shat="a", argmin_channel_s_to_e="b",
        plug_in_bias_bits=0.001, embed=EMBED,
    )


def white(n, seed, label):
    """Independent white noise, for the role a test does not use."""
    return ts(np.random.default_rng(seed).standard_normal(n), label=label)


class TestRateBundleType:
    def test_bundle_arithmetic(self):
        b = bundle(0.02, 0.05, 0.03)
        assert b.r_min == 0.02

    def test_round_trips_to_dict(self):
        b = bundle(0.02, 0.05, 0.03)
        doc = b.to_dict()
        assert doc["r_min"] == 0.02


def e_to_shat(rec, tgt, seed):
    """E->Shat minimum and argmin of the bundle, with a white-noise stimulus."""
    [b] = directed_redundancy_bound([white(len(tgt), 1000 + seed, "s")], rec, [tgt], EMBED)
    return b.r_e_to_shat, b.argmin_channel_e_to_shat


def s_to_e(drv, rec, seed):
    """S->E minimum and argmin of the bundle, with a white-noise reconstruction."""
    [b] = directed_redundancy_bound([drv], rec, [white(len(drv), 1000 + seed, "shat")], EMBED)
    return b.r_s_to_e, b.argmin_channel_s_to_e


def s_to_shat(s, shat, seed):
    """S->Shat rate of the bundle, with one white-noise channel."""
    rec = MultichannelRecording(("e",), 64.0, [white(len(s), 1000 + seed, "e").samples])
    [b] = directed_redundancy_bound([s], rec, [shat], EMBED)
    return b.r_s_to_shat


class TestChannelMinima:
    def test_singleton_channel(self):
        drv, tgt = driver_target_pair(0)
        rec = MultichannelRecording(("drv",), 64.0, [drv.samples])
        value, label = e_to_shat(rec, tgt, 0)
        assert value == transfer_entropy(drv, tgt, EMBED)
        assert label == "drv"

    def test_noise_channel_wins_the_minimum(self):
        drv, tgt = driver_target_pair(1)
        rng = np.random.default_rng(1)
        noise = ts(rng.standard_normal(N), label="noise")
        rec = MultichannelRecording(("drv", "noise"), 64.0, [drv.samples, noise.samples])
        value, label = e_to_shat(rec, tgt, 1)
        assert label == "noise"
        assert value <= 10 * plug_in_bias(N, EMBED.source_history) + 1e-4

    def test_duplicate_channels_tie_break_first(self):
        drv, tgt = driver_target_pair(2)
        rec = MultichannelRecording(("first", "second"), 64.0, [drv.samples, drv.samples])
        value, label = e_to_shat(rec, tgt, 2)
        assert label == "first"

    def test_s_to_e_mirrors(self):
        drv, tgt = driver_target_pair(3)
        rng = np.random.default_rng(3)
        noise = ts(rng.standard_normal(N), label="noise")
        rec = MultichannelRecording(("driven", "noise"), 64.0, [tgt.samples, noise.samples])
        value, label = s_to_e(drv, rec, 3)
        assert label == "noise"
        assert value <= 10 * plug_in_bias(N, EMBED.source_history) + 1e-4
        single = MultichannelRecording(("tgt",), 64.0, [tgt.samples])
        v1, l1 = s_to_e(drv, single, 3)
        assert v1 == transfer_entropy(drv, tgt, EMBED)
        duplicated = MultichannelRecording(("first", "second"), 64.0, [tgt.samples, tgt.samples])
        _, tie_label = s_to_e(drv, duplicated, 3)
        assert tie_label == "first"

    def test_permutation_changes_labels_not_values(self):
        drv, tgt = driver_target_pair(4)
        rng = np.random.default_rng(4)
        other = ts(rng.standard_normal(N), label="b")
        rec_ab = MultichannelRecording(("a", "b"), 64.0, [drv.samples, other.samples])
        rec_ba = MultichannelRecording(("b", "a"), 64.0, [other.samples, drv.samples])
        v_ab, _ = e_to_shat(rec_ab, tgt, 4)
        v_ba, _ = e_to_shat(rec_ba, tgt, 4)
        assert v_ab == v_ba

    def test_dropping_a_channel_cannot_decrease_minimum(self):
        drv, tgt = driver_target_pair(5)
        rng = np.random.default_rng(5)
        chans = [drv.samples, rng.standard_normal(N), rng.standard_normal(N)]
        full = MultichannelRecording(("a", "b", "c"), 64.0, chans)
        v_full, _ = e_to_shat(full, tgt, 5)
        for drop in range(3):
            keep = [i for i in range(3) if i != drop]
            subset = MultichannelRecording([full.labels[i] for i in keep], 64.0, full.samples[keep])
            v_sub, _ = e_to_shat(subset, tgt, 5)
            assert v_sub >= v_full


class TestStimulusToReconstruction:
    def test_independent_series(self):
        rng = np.random.default_rng(6)
        s = ts(rng.standard_normal(N), label="s")
        shat = ts(rng.standard_normal(N), label="shat")
        assert s_to_shat(s, shat, 6) <= 10 * plug_in_bias(N, 2) + 1e-4

    def test_delayed_noisy_copy_matches_oracle(self):
        # shat_t = 0.8 s_{t-1} + noise, s an AR(1): oracle via the exact
        # stationary covariance of the joint model
        model = VarModel(
            transition=[[0.7, 0.0], [0.8, 0.0]], noise_cov=np.eye(2),
            labels=("s", "shat"),
        )
        oracle = analytic_te(model, 0, 1, EMBED)
        rec = simulate(model, 100_000, seed=7, rate_hz=64.0)
        est = s_to_shat(rec.channels[0], rec.channels[1], 7)
        assert abs(est - oracle) < 0.005

    def test_exact_copy_degenerate(self):
        rng = np.random.default_rng(8)
        s = ts(rng.standard_normal(N), label="s")
        with pytest.raises(DegenerateCovariance):
            s_to_shat(s, s.with_samples(s.samples, label="shat"), 8)


class TestDirectedRedundancyBound:
    def _system(self, seed, coupling=0.5, n=N):
        # driver feeds two channels; both feed the target
        a = np.array(
            [
                [0.5, 0.0, 0.0, 0.0],
                [coupling, 0.3, 0.0, 0.0],
                [coupling, 0.0, 0.4, 0.0],
                [0.0, 0.4, 0.4, 0.2],
            ]
        )
        model = VarModel(transition=a, noise_cov=np.eye(4), labels=("phi", "x", "y", "z"))
        rec = simulate(model, n, seed=seed, rate_hz=64.0)
        s = rec.channels[0]
        electrodes = MultichannelRecording(rec.labels[1:3], rec.rate_hz, rec.samples[1:3])
        shat = rec.channels[3]
        return s, electrodes, shat

    def test_min_property_exact(self):
        s, electrodes, shat = self._system(9)
        [b] = directed_redundancy_bound([s], electrodes, [shat], EMBED)
        assert b.r_min == min(b.r_s_to_shat, b.r_e_to_shat, b.r_s_to_e)
        assert b.r_min <= b.r_s_to_shat
        assert b.r_min <= b.r_e_to_shat
        assert b.r_min <= b.r_s_to_e

    def test_strong_coupling_beats_weak(self):
        wins = 0
        seeds = 20
        for seed in range(seeds):
            s1, e1, z1 = self._system(100 + seed, coupling=0.8, n=10_000)
            s2, e2, z2 = self._system(200 + seed, coupling=0.2, n=10_000)
            [strong] = directed_redundancy_bound([s1], e1, [z1], EMBED)
            [weak] = directed_redundancy_bound([s2], e2, [z2], EMBED)
            if strong.r_min > weak.r_min:
                wins += 1
        assert wins >= int(0.95 * seeds)

    def test_bundle_carries_its_bias_and_embedding(self):
        # the bias of one TE over the kernel's rows, n - width + 1 with the
        # window spanning the deepest block, for every pair of the call
        n = 2_000
        s, electrodes, shat = self._system(11, n=n)
        for e in (EMBED, EmbedSpec(source_history=3, target_history=5, delay=2)):
            width = max(e.delay + e.source_history - 1, e.target_history) + 1
            rows = te_blocks(s.samples, shat.samples, e)[0].shape[0]
            assert rows == n - width + 1
            other = (white(n, 12, "s2"), shat.with_samples(s.samples + shat.samples))
            bundles = directed_redundancy_bound([s, other[0]], electrodes, [shat, other[1]], e)
            assert len(bundles) == 2
            for b in bundles:
                assert b.plug_in_bias_bits == plug_in_bias(rows, e.source_history)
                assert b.embed == e
                assert b.to_dict()["embed"] == e.to_dict()

    def test_series_must_match_the_electrodes(self):
        s, electrodes, shat = self._system(10, n=2_000)
        short = s.with_samples(s.samples[:-1])
        fast = TimeSeries(shat.label, 128.0, shat.samples)
        with pytest.raises(ShapeMismatch, match="length and rate"):
            directed_redundancy_bound([short], electrodes, [shat], EMBED)
        with pytest.raises(ShapeMismatch, match="length and rate"):
            directed_redundancy_bound([s], electrodes, [fast], EMBED)
        with pytest.raises(ShapeMismatch, match="length and rate"):
            directed_redundancy_bound([s, shat], electrodes, [shat], EMBED)
        with pytest.raises(ShapeMismatch, match="length and rate"):
            directed_redundancy_bound([s], electrodes, [shat, shat], EMBED)
        with pytest.raises(ShapeMismatch, match="length and rate"):
            directed_redundancy_bound([], electrodes, [], EMBED)


class TestBundleKernel:
    """directed_redundancy_bound takes all its rates from one kernel call."""

    def _system(self, seed, n=N):
        return TestDirectedRedundancyBound()._system(seed, n=n)

    def test_bundle_matches_the_rate_functions(self):
        for seed in range(3):
            s, electrodes, shat = self._system(20 + seed)
            [b] = directed_redundancy_bound([s], electrodes, [shat], EMBED)
            into_shat = [transfer_entropy(c, shat, EMBED) for c in electrodes.channels]
            from_s = [transfer_entropy(s, c, EMBED) for c in electrodes.channels]
            assert b.r_s_to_shat == transfer_entropy(s, shat, EMBED)
            assert (b.r_e_to_shat, b.argmin_channel_e_to_shat) == (
                min(into_shat), electrodes.labels[into_shat.index(min(into_shat))]
            )
            assert (b.r_s_to_e, b.argmin_channel_s_to_e) == (
                min(from_s), electrodes.labels[from_s.index(min(from_s))]
            )

    def test_duplicated_channels_tie_to_the_earliest(self):
        s, electrodes, shat = self._system(23)
        x, y = electrodes.channels
        for chans in ((x, x), (x, y, x), (y, x, x)):
            labels = tuple(f"c{i}" for i in range(len(chans)))
            rec = MultichannelRecording(labels, 64.0, [c.samples for c in chans])
            [b] = directed_redundancy_bound([s], rec, [shat], EMBED)
            into_shat = [transfer_entropy(c, shat, EMBED) for c in rec.channels]
            from_s = [transfer_entropy(s, c, EMBED) for c in rec.channels]
            copies = [i for i, c in enumerate(chans) if c is x]
            assert len({into_shat[i] for i in copies}) == 1
            assert len({from_s[i] for i in copies}) == 1
            assert b.argmin_channel_e_to_shat == labels[into_shat.index(min(into_shat))]
            assert b.argmin_channel_s_to_e == labels[from_s.index(min(from_s))]

    def test_reconstruction_equal_to_stimulus_names_the_pair(self):
        s, electrodes, _ = self._system(24)
        with pytest.raises(DegenerateCovariance, match="S->Shat"):
            directed_redundancy_bound([s], electrodes, [s.with_samples(s.samples, label="shat")], EMBED)

    def test_two_pair_call_equals_two_one_pair_calls(self):
        # values and argmin labels alike, bit for bit: a pair's rates do not
        # depend on the other pair rated over the same channels
        s, electrodes, shat = self._system(25, n=5_000)
        other = (white(len(s), 26, "s2"), shat.with_samples(s.samples + shat.samples))
        both = directed_redundancy_bound([s, other[0]], electrodes, [shat, other[1]], EMBED)
        alone = [
            *directed_redundancy_bound([s], electrodes, [shat], EMBED),
            *directed_redundancy_bound([other[0]], electrodes, [other[1]], EMBED),
        ]
        assert [b.to_dict() for b in both] == [b.to_dict() for b in alone]
        assert both[0] != both[1]

    def test_degenerate_second_pair_names_its_index(self):
        s, electrodes, shat = self._system(27, n=5_000)
        copy = s.with_samples(s.samples, label="shat")
        with pytest.raises(DegenerateCovariance, match="S->Shat") as caught:
            directed_redundancy_bound([s, s], electrodes, [shat, copy], EMBED)
        assert caught.value.target == 1

    def test_cli_exits_4_naming_trial_and_pair(self, tmp_path, capsys):
        self._cli_exits_4_naming_trial_and_pair(tmp_path, capsys, "attended", "att")

    def test_cli_exits_4_naming_the_distractor_pair(self, tmp_path, capsys):
        # `rates` rates both conditions in one call per trial: the distractor
        # is the call's second pair, and the error's target maps to it
        self._cli_exits_4_naming_trial_and_pair(tmp_path, capsys, "distractor", "dst")

    def _cli_exits_4_naming_trial_and_pair(self, tmp_path, capsys, condition, role):
        config = {
            "config_version": 1,
            "seed": 5,
            "scenario": {"n_subjects": 2, "n_trials": 4, "n_samples": 600, "n_channels": 6},
            "lag_window_ms": [0, 125],
            "lambda_grid": [1.0, 100.0],
            "embed": {"source_history": 4, "target_history": 4, "delay": 1},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        data, out = tmp_path / "data", tmp_path / "out"
        args = ["--config", str(cfg_path), "--data", str(data)]
        assert main(["simulate", *args]) == 0
        assert main(["train", *args, "--out", str(out)]) == 0
        # a decoder that copies its first channel at lag 0, and a stimulus
        # of its condition equal to that channel: the reconstruction is the
        # stimulus
        dec_path = out / "decoders" / f"s01_{condition}.json"
        doc = json.loads(dec_path.read_text())
        doc["weights"] = [[float(i == 0 and c == 0) for c in range(len(row))]
                          for i, row in enumerate(doc["weights"])]
        dec_path.write_text(json.dumps(doc))
        eeg_lines = (data / "s01" / "t001_eeg.csv").read_text().splitlines()
        col = eeg_lines[0].split(",").index(doc["channel_labels"][0])
        stim_path = data / "s01" / f"t001_{role}.csv"
        stim_lines = stim_path.read_text().splitlines()
        stim_path.write_text("\n".join(
            [stim_lines[0]] + [f"{a.split(',')[0]},{e.split(',')[col]}"
                               for a, e in zip(stim_lines[1:], eeg_lines[1:])]
        ) + "\n")
        capsys.readouterr()
        assert main(["rates", *args, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "DegenerateCovariance" in err
        for part in ("subject s01", "trial t001", condition, "S->Shat"):
            assert part in err
        assert f"subject s01, trial t001, {condition}: covariance of TE S->Shat" in err
