"""Container types, normalization, lag embedding, channel selection."""

import csv
import io
import pickle
from dataclasses import replace

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

    def test_pickle_round_trip_stays_read_only(self):
        x = ts([1.0, 2.0], label="env")
        back = pickle.loads(pickle.dumps(x))
        assert back == x
        assert not back.samples.flags.writeable
        with pytest.raises(ValueError):
            back.samples[0] = 5.0

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
            MultichannelRecording(("x", "x"), 64.0, [[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "labels, rate, samples, error",
        [
            (("a", "b"), 64.0, [[1.0, np.nan], [3.0, 4.0]], ShapeMismatch),
            (("a", "b"), 64.0, [[1.0, 2.0], [-np.inf, 4.0]], ShapeMismatch),
            (("a",), 64.0, [1.0, 2.0], ShapeMismatch),
            (("a",), 64.0, [[1.0, 2.0], [3.0, 4.0]], ShapeMismatch),
            (("a", "b", "c"), 64.0, [[1.0, 2.0], [3.0, 4.0]], ShapeMismatch),
            ((), 64.0, np.zeros((0, 2)), ShapeMismatch),
            (("a",), 0.0, [[1.0, 2.0]], InvalidRate),
            (("a",), -64.0, [[1.0, 2.0]], InvalidRate),
            (("a",), np.nan, [[1.0, 2.0]], InvalidRate),
            (("a",), np.inf, [[1.0, 2.0]], InvalidRate),
            (("a",), -np.inf, [[1.0, 2.0]], InvalidRate),
        ],
        ids=["nan", "inf", "1-D", "fewer-labels", "more-labels", "no-rows", "zero-rate",
             "negative-rate", "nan-rate", "inf-rate", "negative-inf-rate"],
    )
    def test_malformed_recording_refused(self, labels, rate, samples, error):
        with pytest.raises(error):
            MultichannelRecording(labels, rate, samples)

    def test_samples_are_a_read_only_copy(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        r = MultichannelRecording(("a", "b"), 64.0, values)
        values[0, 0] = 9.0
        assert r.samples[0, 0] == 1.0
        with pytest.raises(ValueError):
            r.samples[0, 0] = 5.0

    def test_pickle_round_trip_stays_read_only(self):
        r = MultichannelRecording(("a", "b"), 64.0, [[1.0, 2.0], [3.0, 4.0]])
        back = pickle.loads(pickle.dumps(r))
        assert back == r
        assert not back.samples.flags.writeable
        with pytest.raises(ValueError):
            back.samples[0, 0] = 5.0
        # unpickling re-runs the constructor's checks
        object.__setattr__(r, "labels", ("a", "a"))
        with pytest.raises(ShapeMismatch):
            pickle.loads(pickle.dumps(r))

    def test_to_array_order(self):
        r = MultichannelRecording(("a", "b"), 64.0, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(r.to_array(), [[1, 3], [2, 4]])


@pytest.mark.parametrize("rate", [0.0, np.nan, np.inf, -np.inf], ids=["zero", "nan", "inf", "-inf"])
def test_rate_must_be_finite_and_positive(rate):
    """Both types refuse the rate, built directly or as a copy of a valid one
    with new samples or a new rate. A NaN rate would otherwise surface later,
    as a length-or-rate mismatch between two series of equal length."""
    with pytest.raises(InvalidRate, match="finite number > 0"):
        TimeSeries("x", rate, [1.0, 2.0])
    with pytest.raises(InvalidRate, match="finite number > 0"):
        MultichannelRecording(("a",), rate, [[1.0, 2.0]])
    x = ts([1.0, 2.0])
    object.__setattr__(x, "rate_hz", rate)
    with pytest.raises(InvalidRate):
        x.with_samples([3.0, 4.0])
    with pytest.raises(InvalidRate):
        replace(MultichannelRecording(("a",), 64.0, [[1.0, 2.0]]), rate_hz=rate)


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
        with pytest.raises(ZeroVarianceSignal, match="'b'"):
            normalize(MultichannelRecording(("a", "b"), 64.0, [[1.0, 2.0, 4.0], [5.0, 5.0, 5.0]]))

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

    def test_recording_equals_per_channel_normalize(self):
        """Each row of a normalized recording is bit for bit its channel
        normalized on its own, because both reduce along a contiguous axis.
        Means over axis 0 of the (n_samples, n_channels) layout are summed
        in another order and differ in the last bit, so a recording keeps
        channels as rows. ``to_array`` still hands the decoder a fresh
        C-ordered (n_samples, n_channels) copy, so its products are summed
        in the same order as from stacked columns."""
        rng = np.random.default_rng(12)
        for n_channels, n in ((1, 2), (3, 7), (6, 3200)):
            offsets = rng.uniform(-50, 50, (n_channels, 1))
            scales = rng.uniform(0.01, 100, (n_channels, 1))
            values = offsets + scales * rng.standard_normal((n_channels, n))
            r = MultichannelRecording([f"c{i}" for i in range(n_channels)], 64.0, values)
            out = normalize(r)
            assert out.labels == r.labels and out.rate_hz == r.rate_hz
            for row, ch in zip(out.samples, r.channels):
                assert np.array_equal(row, normalize(ch).samples)
            arr = out.to_array()
            assert arr.flags.c_contiguous and arr.flags.writeable
            assert np.array_equal(arr, np.column_stack([ch.samples for ch in out.channels]))


def one_channel_design(x, w):
    """Lagged design of one series: ``build_design`` on a one-channel recording."""
    return build_design(MultichannelRecording((x.label,), x.rate_hz, [x.samples]), w)


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
        return MultichannelRecording(labels, 64.0, [rng.standard_normal(n) for _ in labels])

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


def row_loop_csv(r: MultichannelRecording) -> bytes:
    """The writer's former row loop, kept as the oracle for its bytes: the
    csv.writer header, then ``t + "," + ",".join(map(repr, row)) + "\\r\\n"``
    over the rows of ``to_array()``."""
    header = io.StringIO(newline="")
    csv.writer(header).writerow(["t", *r.labels])
    times = map(repr, (np.arange(r.n_samples) / r.rate_hz).tolist())
    rows = (
        t + "," + ",".join(map(repr, row)) + "\r\n"
        for t, row in zip(times, r.to_array().tolist())
    )
    return (header.getvalue() + "".join(rows)).encode()


#: Doubles whose shortest repr takes each of its forms: subnormal, signed
#: zero, exponent notation at both ends, the smallest normal, the largest
#: finite, and a sum that is not its decimal look-alike.
AWKWARD = (5e-324, -0.0, 1e16, 1e-5, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2)


def writer_cases():
    rng = np.random.default_rng(21)
    six = rng.standard_normal((6, 40))
    for c, v in enumerate(AWKWARD):
        six[c % 6, 3 * c : 3 * c + 2] = v, -v
    return [
        pytest.param(MultichannelRecording(LEFT_TEMPORAL_LABELS, 64.0, six), id="6-channel"),
        pytest.param(MultichannelRecording(("env",), 100.0, rng.standard_normal((1, 25))), id="1-channel"),
        pytest.param(MultichannelRecording(("a", "b"), 64.0, np.zeros((2, 0))), id="no-samples"),
    ]


class TestRecordingFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        r = MultichannelRecording(("a", "b"), 64.0, [rng.standard_normal(50), rng.standard_normal(50)])
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
        r = MultichannelRecording(labels, 64.0, [rng.standard_normal(40) * 1e3 for _ in labels])
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

    @pytest.mark.parametrize("r", writer_cases())
    def test_writer_bytes_match_row_loop(self, tmp_path, r):
        path = tmp_path / "rec.csv"
        write_recording(r, path)
        written = path.read_bytes()
        assert written == row_loop_csv(r)
        assert written.count(b"\r\n") == r.n_samples + 1
        if r.n_samples == 0:
            assert written == b"t,a,b\r\n"  # the header line only
        else:
            assert read_recording(path) == r

    def test_time_column_per_length_and_rate(self, tmp_path):
        # recordings of other lengths and rates in turn: each file's time
        # column is its own, as if computed afresh
        rng = np.random.default_rng(11)
        shapes = [(3200, 64.0), (700, 100.0), (500, 3.7)] * 2 + [(700, 64.0), (3200, 64.0)]
        for k, (n, rate) in enumerate(shapes):
            r = MultichannelRecording(("a", "b"), rate, [rng.standard_normal(n) for _ in range(2)])
            path = tmp_path / f"rec{k}.csv"
            write_recording(r, path)
            rows = np.column_stack([np.arange(n) / rate] + [ch.samples for ch in r.channels])
            expected = "t,a,b\r\n" + "".join(",".join(map(repr, row)) + "\r\n" for row in rows.tolist())
            assert path.read_bytes() == expected.encode(), (n, rate)

    def test_round_trip_exact_with_sign(self, tmp_path):
        values = [5e-324, -0.0, 1.7976931348623157e308, 2.2250738585072014e-308,
                  0.1 + 0.2, 1 / 3]
        values += [-v for v in values]
        r = MultichannelRecording(("v",), 64.0, [values])
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
