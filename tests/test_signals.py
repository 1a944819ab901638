"""Container types, normalization, envelopes, lag embedding, channel selection."""

import csv

import numpy as np
import pytest

from redflow.decoder import build_design
from redflow.errors import (
    DataError,
    InvalidRate,
    ShapeMismatch,
    UnknownChannel,
    WindowTooLarge,
    ZeroVarianceSignal,
)
from redflow.signals import (
    LEFT_TEMPORAL_LABELS,
    LagWindow,
    MultichannelRecording,
    TimeSeries,
    extract_envelope,
    lag_valid_slice,
    normalize,
    read_recording,
    select_channels,
    write_recording,
)


def ts(values, rate=64.0, label="x"):
    return TimeSeries(label, rate, values)


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ShapeMismatch):
            ts([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ShapeMismatch):
            ts([1.0, np.inf])

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidRate):
            TimeSeries("x", 0.0, [1.0, 2.0])

    def test_samples_immutable(self):
        x = ts([1.0, 2.0])
        with pytest.raises(ValueError):
            x.samples[0] = 5.0

    def test_equality(self):
        assert ts([1.0, 2.0]) == ts([1.0, 2.0])
        assert ts([1.0, 2.0]) != ts([1.0, 3.0])

    @pytest.mark.parametrize("values", [np.zeros((4, 2)), 1.0], ids=["2-D", "0-D"])
    def test_rejects_samples_that_are_not_1d(self, values):
        with pytest.raises(ShapeMismatch, match="1-D"):
            ts(values)


class TestRecording:
    def test_unique_labels_required(self):
        with pytest.raises(ShapeMismatch):
            MultichannelRecording(channels=(ts([1, 2]), ts([3, 4])))

    def test_equal_lengths_required(self):
        with pytest.raises(ShapeMismatch):
            MultichannelRecording(channels=(ts([1, 2], label="a"), ts([3, 4, 5], label="b")))

    def test_to_array_order(self):
        r = MultichannelRecording(channels=(ts([1, 2], label="a"), ts([3, 4], label="b")))
        np.testing.assert_array_equal(r.to_array(), [[1, 3], [2, 4]])


class TestNormalize:
    def test_two_point(self):
        out = normalize(ts([1.0, 3.0]))
        np.testing.assert_allclose(out.samples, [-1.0, 1.0])

    def test_population_convention(self):
        out = normalize(ts([1.0, 2.0, 6.0]))
        assert abs(np.mean(out.samples)) < 1e-12
        assert abs(np.mean(out.samples**2) - 1.0) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = normalize(ts(rng.standard_normal(500)))
        again = normalize(x)
        np.testing.assert_allclose(again.samples, x.samples, atol=1e-12)

    def test_constant_raises(self):
        with pytest.raises(ZeroVarianceSignal):
            normalize(ts([5.0, 5.0, 5.0]))

    def test_metadata_preserved(self):
        out = normalize(TimeSeries("env", 128.0, [0.0, 1.0, 4.0]))
        assert out.label == "env"
        assert out.rate_hz == 128.0

    def test_random_inputs(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.uniform(-5, 5) + rng.uniform(0.1, 10) * rng.standard_normal(300)
            out = normalize(ts(x))
            assert abs(np.mean(out.samples)) < 1e-12
            assert abs(np.mean(out.samples**2) - 1.0) < 1e-9


class TestExtractEnvelope:
    def test_sinusoid_envelope_is_amplitude(self):
        fs, amp = 16000, 2.5
        t = np.arange(fs * 4) / fs
        audio = ts(amp * np.sin(2 * np.pi * 1000.0 * t), rate=fs)
        env = extract_envelope(audio, 64.0)
        assert env.rate_hz == 64.0
        tail = env.samples[len(env) // 5 :]  # skip the filter transient
        assert np.max(np.abs(tail - amp)) / amp < 0.05

    def test_zero_signal(self):
        audio = ts(np.zeros(16000), rate=16000)
        env = extract_envelope(audio, 64.0)
        np.testing.assert_allclose(env.samples, 0.0)

    def test_am_tone_tracks_modulator(self):
        # oracle: the known 4 Hz modulator; alignment scans a few samples
        # to absorb the low-pass group delay
        fs = 16000
        t = np.arange(fs * 16) / fs
        mod = 1.0 + 0.5 * np.sin(2 * np.pi * 4.0 * t)
        audio = ts(mod * np.sin(2 * np.pi * 1000.0 * t), rate=fs)
        env = extract_envelope(audio, 64.0)
        mod64 = mod[:: fs // 64]
        skip = 64
        best = -1.0
        for shift in range(4):
            a = env.samples[skip + shift : len(env)]
            b = mod64[skip : len(env) - shift]
            best = max(best, np.corrcoef(a, b)[0, 1])
        assert best > 0.95

    def test_nyquist_violation(self):
        audio = ts(np.ones(100), rate=100.0)
        with pytest.raises(InvalidRate):
            extract_envelope(audio, 64.0)

    def test_non_integer_factor(self):
        audio = ts(np.zeros(1000), rate=1000.0)
        with pytest.raises(InvalidRate):
            extract_envelope(audio, 48.0)

    def test_length_and_nonnegativity(self):
        rng = np.random.default_rng(1)
        audio = ts(rng.standard_normal(12800), rate=1280.0)
        env = extract_envelope(audio, 64.0)
        expected = int(len(audio) * 64.0 / 1280.0)
        assert abs(len(env) - expected) <= 1
        assert np.all(env.samples >= 0.0)

    def test_compression_exponent(self):
        fs = 16000
        t = np.arange(fs * 2) / fs
        audio = ts(4.0 * np.sin(2 * np.pi * 1000.0 * t), rate=fs)
        lin = extract_envelope(audio, 64.0)
        sq = extract_envelope(audio, 64.0, compression=0.5)
        np.testing.assert_allclose(sq.samples, np.sqrt(lin.samples), atol=1e-12)


def one_channel_design(x, w):
    """Lagged design of one series: ``build_design`` on a one-channel recording."""
    return build_design(MultichannelRecording(channels=(x,)), w)


class TestLagEmbed:
    def test_basic(self):
        out = one_channel_design(ts([1.0, 2.0, 3.0, 4.0]), LagWindow(0, 1))
        np.testing.assert_array_equal(out, [[1, 2], [2, 3], [3, 4]])

    def test_identity_window(self):
        x = ts([5.0, 6.0, 7.0])
        out = one_channel_design(x, LagWindow(0, 0))
        np.testing.assert_array_equal(out[:, 0], x.samples)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            one_channel_design(ts([1.0, 2.0, 3.0]), LagWindow(0, 5))

    def test_negative_lags(self):
        out = one_channel_design(ts([1.0, 2.0, 3.0, 4.0]), LagWindow(-1, 0))
        np.testing.assert_array_equal(out, [[1, 2], [2, 3], [3, 4]])

    def test_straddling_window(self):
        out = one_channel_design(ts([1.0, 2.0, 3.0, 4.0, 5.0]), LagWindow(-1, 1))
        np.testing.assert_array_equal(out, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_valid_slice_matches(self):
        w = LagWindow(-2, 3)
        sl = lag_valid_slice(10, w)
        assert sl == slice(2, 7)
        assert one_channel_design(ts(np.arange(10.0)), w).shape == (5, 6)

    def test_invalid_window(self):
        with pytest.raises(ShapeMismatch):
            LagWindow(2, 1)

    def test_matches_column_by_column_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(20, 300))
            lo = int(rng.integers(-8, 5))
            w = LagWindow(lo, lo + int(rng.integers(0, 9)))
            x = rng.standard_normal(n)
            sl = lag_valid_slice(n, w)
            m = sl.stop - sl.start
            expected = np.column_stack(
                [x[sl.start + w.tau_min + k : sl.start + w.tau_min + k + m] for k in range(w.n_lags)]
            )
            out = one_channel_design(ts(x), w)
            assert np.array_equal(out, expected)


class TestSelectChannels:
    def _recording(self, n_channels=64, n=16):
        rng = np.random.default_rng(7)
        labels = list(LEFT_TEMPORAL_LABELS) + [f"E{i:02d}" for i in range(n_channels - 6)]
        chans = tuple(ts(rng.standard_normal(n), label=lab) for lab in labels)
        return MultichannelRecording(channels=chans)

    def test_left_temporal_subset(self):
        r = self._recording()
        out = select_channels(r, LEFT_TEMPORAL_LABELS)
        assert out.labels == LEFT_TEMPORAL_LABELS

    def test_identity(self):
        r = self._recording(n_channels=8)
        assert select_channels(r, r.labels) == r

    def test_requested_order(self):
        r = self._recording(n_channels=8)
        out = select_channels(r, ("T7", "FT7"))
        assert out.labels == ("T7", "FT7")

    def test_unknown_channel(self):
        r = self._recording(n_channels=8)
        with pytest.raises(UnknownChannel, match="XX"):
            select_channels(r, ("XX",))


SIDECAR = '{"subject_id": "s", "trial_id": "t", "condition": "unlabeled", "rate_hz": 64.0}'


class TestRecordingFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        r = MultichannelRecording(
            channels=(ts(rng.standard_normal(50), label="a"), ts(rng.standard_normal(50), label="b")),
        )
        path = tmp_path / "rec.csv"
        write_recording(r, path)
        back = read_recording(path)
        assert back == r

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("t,a\n0.0,1.0\n")
        with pytest.raises(DataError):
            read_recording(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_recording(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("time,a\n0.0,1.0\n")
        path.with_suffix(".json").write_text(SIDECAR)
        with pytest.raises(DataError):
            read_recording(path)

    def test_writer_bytes_match_csv_writer(self, tmp_path):
        # reference: the row-by-row csv.writer layout (CRLF rows, minimal quoting)
        rng = np.random.default_rng(8)
        labels = ("a", 'needs "quoting", here')
        r = MultichannelRecording(
            channels=tuple(ts(rng.standard_normal(40) * 1e3, label=lab) for lab in labels)
        )
        path = tmp_path / "rec.csv"
        write_recording(r, path)
        ref = tmp_path / "ref.csv"
        t = np.arange(r.n_samples) / r.rate_hz
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", *r.labels])
            for i in range(r.n_samples):
                writer.writerow(
                    [repr(float(t[i]))] + [repr(float(v)) for v in r.to_array()[i]]
                )
        written = path.read_bytes()
        assert written == ref.read_bytes()
        assert written.startswith(b't,a,"needs ""quoting"", here"\r\n')
        assert written.count(b"\r\n") == r.n_samples + 1
        assert read_recording(path).labels == labels

    def test_round_trip_exact_with_sign(self, tmp_path):
        values = [5e-324, -0.0, 1.7976931348623157e308, 2.2250738585072014e-308,
                  0.1 + 0.2, 1 / 3]
        values += [-v for v in values]
        r = MultichannelRecording(channels=(ts(values, label="v"),))
        path = tmp_path / "rec.csv"
        write_recording(r, path)
        back = read_recording(path).channel("v").samples
        assert back.tolist() == values
        assert np.signbit(back).tolist() == np.signbit(values).tolist()

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("# note\n\nt,a\n0.0,1.0\n\n# mid\n0.015625,2.0\n")
        path.with_suffix(".json").write_text(SIDECAR)
        assert read_recording(path).channel("a").samples.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "empty file"),
            ("# only a comment\n\n", "empty file"),
            ("t\n0.0\n", "no channel columns"),
            ("t,a\n", "no samples"),
            ("t,a\n# comment\n\n", "no samples"),
            ("t,a\n0.0,1.0\n0.015625\n", "rec.csv"),
            ("t,a,b\n0.0,1.0\n", "ragged rows"),
            ("t,a\n0.0,nope\n", "rec.csv"),
        ],
        ids=["empty", "comments-only", "no-channels", "header-only",
             "header-and-comments", "ragged", "short-of-header", "non-numeric"],
    )
    def test_malformed_csv_is_data_error(self, tmp_path, body, message):
        path = tmp_path / "rec.csv"
        path.write_text(body)
        path.with_suffix(".json").write_text(SIDECAR)
        with pytest.raises(DataError, match=message):
            read_recording(path)

    def test_missing_sidecar_key(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("t,a\n0.0,1.0\n")
        path.with_suffix(".json").write_text('{"subject_id": "s", "trial_id": "t"}')
        with pytest.raises(DataError, match="rate_hz"):
            read_recording(path)
