"""Configuration handling and the file-backed pipeline stages."""

import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from redflow import cli, workers
from redflow.analysis import RATE_KEYS, RATE_KINDS, to_db
from redflow.cli import RunConfig, config_from_dict, load_config, main
from redflow.errors import ConfigError, DataError, ShapeMismatch, SingularSystem, ZeroVarianceSignal
from redflow.infotheory import EmbedSpec
from redflow.synth import AadScenario, make_aad_scenario


TINY = {
    "config_version": 1,
    "seed": 5,
    "scenario": {"n_subjects": 2, "n_trials": 4, "n_samples": 600, "n_channels": 6},
    "lag_window_ms": [0, 125],
    "lambda_grid": [1.0, 100.0],
    "embed": {"source_history": 4, "target_history": 4, "delay": 1},
}


def write_config(tmp_path, doc=TINY, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_nonmeta_lines(path):
    return [l for l in Path(path).read_text().splitlines() if not l.startswith("# meta ")]


def strip_timestamp(path):
    """File content with the generated_at value blanked, for byte comparisons."""
    text = Path(path).read_bytes().decode()
    if Path(path).name == "fits.json":
        doc = json.loads(text)
        doc["meta"].pop("generated_at", None)
        return json.dumps(doc, sort_keys=True, indent=1)
    out = []
    for line in text.split("\n"):
        if line.startswith("# meta "):
            doc = json.loads(line[len("# meta "):])
            doc.pop("generated_at", None)
            line = "# meta " + json.dumps(doc, sort_keys=True)
        out.append(line)
    return "\n".join(out)


def output_metas(out):
    """Name and metadata of every output of train, rates and report."""
    metas = {
        path.name: json.loads(path.read_text())["meta"]
        for path in sorted((out / "decoders").glob("*.json"))
    }
    for name in ("rates.ndjson", "rd_points.ndjson", "pdf.csv", "rd_curve.csv"):
        metas[name] = json.loads((out / name).read_text().splitlines()[0][len("# meta "):])
    metas["fits.json"] = json.loads((out / "fits.json").read_text())["meta"]
    return metas


def set_keys(text, **changes):
    """JSON object text with keys set to new values (``None`` deletes the key)."""
    doc = json.loads(text)
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return json.dumps(doc)


def add_column(text, label="extra", value="0.5"):
    """CSV text with one more column."""
    lines = text.split("\n")
    return "\n".join([lines[0] + f",{label}"] + [l + f",{value}" if l else l for l in lines[1:]])


SIDECAR = "data/s01/t002_eeg.json"
DECODER = "out/decoders/s01_attended.json"
RATES = "out/rates.ndjson"

#: case -> (command that reads the file, file under the run directory, line
#: to edit or None for the whole file, edit of that text)
MALFORMED_INPUTS = {
    "decoder-lambda": ("rates", DECODER, None, lambda t: set_keys(t, **{"lambda": None})),
    "point-rate": ("report", RATES, 2, lambda t: set_keys(t, r_s_to_shat=None)),
    "sidecar-rate": ("train", SIDECAR, None, lambda t: set_keys(t, rate_hz="fast")),
    "manifest-not-object": ("train", "data/manifest.json", None, lambda t: "[1]"),
    "manifest-invalid": ("train", "data/manifest.json", None, lambda t: "{bad"),
    "sidecar-not-object": ("train", SIDECAR, None, lambda t: "5"),
    "sidecar-invalid": ("train", SIDECAR, None, lambda t: "{bad"),
    "sidecar-zero-rate": ("train", SIDECAR, None, lambda t: set_keys(t, rate_hz=0)),
    "csv-nan-row": ("train", "data/s01/t002_eeg.csv", 3,
                    lambda row: row.split(",", 1)[0] + ",nan" * row.count(",")),
    "csv-repeated-label": ("train", "data/s01/t002_eeg.csv", 1,
                           lambda header: re.sub(r"^t,([^,]+),[^,]+", r"t,\1,\1", header)),
    "stimulus-extra-column": ("train", "data/s01/t001_att.csv", None, add_column),
    "decoder-not-object": ("rates", DECODER, None, lambda t: "[1, 2]"),
    "decoder-invalid": ("rates", DECODER, None, lambda t: "{bad"),
    "decoder-label-string": ("rates", DECODER, None, lambda t: set_keys(t, channel_labels="T7")),
    # a well-formed decoder for other channels, lags or rate than the config's
    "decoder-label-order": ("rates", DECODER, None, lambda t: set_keys(
        t, channel_labels=json.loads(t)["channel_labels"][::-1])),
    "decoder-label-repeated": ("rates", DECODER, None, lambda t: set_keys(t, channel_labels=["T7"] * 6)),
    "decoder-label-numbers": ("rates", DECODER, None, lambda t: set_keys(
        t, channel_labels=[1, 2, 3, 4, 5, 6])),
    "decoder-other-lags": ("rates", DECODER, None, lambda t: set_keys(
        t, tau_min=json.loads(t)["tau_min"] + 1, tau_max=json.loads(t)["tau_max"] + 1)),
    "decoder-other-rate": ("rates", DECODER, None, lambda t: set_keys(t, rate_hz=128.0)),
    "meta-not-object": ("report", RATES, 1, lambda t: "# meta [1]"),
    "meta-invalid": ("report", RATES, 1, lambda t: "# meta {bad"),
    "point-distortion": ("report", RATES, 2, lambda t: set_keys(t, distortion=2.0)),
    # a record without the rate behind one rate kind
    "point-rate-kind": ("report", RATES, 2, lambda t: set_keys(t, r_min=None)),
    "point-condition": ("report", RATES, 2, lambda t: set_keys(t, condition="atended")),
    # numbers given as JSON strings or bools
    "decoder-string-lambda": ("rates", DECODER, None, lambda t: set_keys(t, **{"lambda": "100"})),
    "decoder-string-weight": ("rates", DECODER, None, lambda t: set_keys(
        t, weights=[[str(v) for v in row] for row in json.loads(t)["weights"]])),
    "sidecar-string-rate": ("train", SIDECAR, None, lambda t: set_keys(t, rate_hz="64.0")),
    "point-bool-rate": ("report", RATES, 2, lambda t: set_keys(t, r_e_to_shat=True)),
    # an integer too large for a float
    "sidecar-huge-rate": ("train", SIDECAR, None, lambda t: set_keys(t, rate_hz=10**400)),
    "decoder-huge-lambda": ("rates", DECODER, None, lambda t: set_keys(t, **{"lambda": 10**400})),
    "point-huge-rate": ("report", RATES, 2, lambda t: set_keys(t, r_s_to_e=10**400)),
    # Python's json writes and reads NaN and Infinity
    "point-nan-rate": ("report", RATES, 2, lambda t: set_keys(t, r_min=float("nan"))),
    "point-negative-rate": ("report", RATES, 2, lambda t: set_keys(t, r_s_to_e=-0.001)),
    "point-negative-distortion": ("report", RATES, 2, lambda t: set_keys(t, distortion=-0.1)),
    "point-without-trial": ("report", RATES, 2, lambda t: set_keys(t, trial_id=None)),
    "sidecar-infinite-rate": ("train", SIDECAR, None, lambda t: set_keys(t, rate_hz=float("inf"))),
    "decoder-nan-lambda": ("rates", DECODER, None, lambda t: set_keys(t, **{"lambda": float("nan")})),
    "decoder-negative-lambda": ("rates", DECODER, None, lambda t: set_keys(t, **{"lambda": -1.0})),
    "decoder-fractional-tau": ("rates", DECODER, None, lambda t: set_keys(t, tau_min=0.9)),
    "decoder-infinite-rate": ("rates", DECODER, None, lambda t: set_keys(t, rate_hz=float("inf"))),
    "decoder-zero-rate": ("rates", DECODER, None, lambda t: set_keys(t, rate_hz=0.0)),
    "decoder-without-hash": ("rates", DECODER, None, lambda t: set_keys(t, meta=None)),
    "manifest-other-schema": ("train", "data/manifest.json", None, lambda t: set_keys(t, schema_version=2)),
}

#: case -> a part of its error message, for MALFORMED_INPUTS cases that pin one
MALFORMED_MESSAGES = {
    "manifest-other-schema": "manifest.json: unsupported schema_version",
}


def field_kwargs(doc):
    """RunConfig keyword arguments for a config-file dict (``embed.<k>`` is
    ``embed_<k>``, ``scenario.<k>`` is ``<k>``)."""
    kwargs = {k: v for k, v in doc.items() if k not in ("embed", "scenario", "config_version")}
    kwargs.update({f"embed_{k}": v for k, v in doc.get("embed", {}).items()})
    kwargs.update(doc.get("scenario", {}))
    return kwargs


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.lag_window().tau_max == 16
        assert cfg.channel_subset == ("FT7", "T7", "TP7", "CP5", "FC5", "C5")
        assert len(cfg.lambda_grid) == 13
        assert cfg.embed() == EmbedSpec()
        assert cfg.scenario() == AadScenario()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"nope": 1})

    def test_bad_version(self):
        with pytest.raises(ConfigError):
            config_from_dict({"config_version": 7})

    def test_bad_fit_mode(self):
        with pytest.raises(ConfigError):
            config_from_dict({"fit_on": "splines"})

    def test_surrogate_hook_is_disabled(self):
        with pytest.raises(ConfigError):
            config_from_dict({"time_shift_surrogates": True})

    @pytest.mark.parametrize(
        "doc",
        [
            {"lambda_grid": "12"},
            {"lambda_grid": [float("nan")]},
            {"channel_subset": "T7"},
            {"channel_subset": []},
            {"channel_subset": ["T7", "T7"]},
            {"seed": 1.7},
            {"seed": True},
            {"scenario": {"n_trials": 2.9}},
            {"kde_level": "0.01"},
            {"kde_level": float("nan")},
            {"rate_hz": 0},
            {"bin_width_bits": 0.005, "bin_stride_bits": 0.02},
            {"lag_window_ms": [0, 1e308]},
            {"rate_hz": 1e308},
            {"kde_level": -1},
            {"bin_width_bits": 0},
            {"lambda_grid": [-1.0]},
            {"lag_window_ms": [10, 0]},
            {"lag_window_ms": [0]},
        ],
        ids=repr,
    )
    def test_malformed_value_rejected(self, doc):
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        with pytest.raises(ConfigError):
            RunConfig(**field_kwargs(doc))

    def test_constructor_names_the_file_key(self):
        with pytest.raises(ConfigError, match=r"scenario\.n_trials"):
            RunConfig(n_trials=2.9)
        with pytest.raises(ConfigError, match=r"embed\.delay"):
            RunConfig(embed_delay=True)

    def test_constructor_and_file_hash_agree(self):
        built = RunConfig(rate_hz=64, lag_window_ms=(0, 125), attended_coupling=0)
        loaded = config_from_dict(
            {"rate_hz": 64, "lag_window_ms": [0, 125], "scenario": {"attended_coupling": 0}}
        )
        assert built == loaded
        assert built.config_hash() == loaded.config_hash()
        assert RunConfig(**field_kwargs(TINY)).config_hash() == config_from_dict(TINY).config_hash()

    def test_malformed_value_exit_code(self, tmp_path):
        path = write_config(tmp_path, doc={**TINY, "channel_subset": ["T7", "T7"]})
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["all", "--config", str(path), "--data", str(data), "--out", str(out)]) == 2

    def test_canonical_json_pinned(self):
        # the hashed layout: changing it changes every output's config hash
        assert config_from_dict(TINY).canonical_json() == (
            '{"bin_stride_bits":0.0025,"bin_width_bits":0.005,'
            '"channel_subset":["FT7","T7","TP7","CP5","FC5","C5"],"config_version":1,'
            '"embed":{"delay":1,"source_history":4,"target_history":4},"fit_on":"raw",'
            '"kde_level":0.01,"lag_window_ms":[0.0,125.0],"lambda_grid":[1.0,100.0],'
            '"rate_hz":64.0,"scenario":{"attended_coupling":0.12,"distractor_coupling":0.03,'
            '"n_channels":6,"n_samples":600,"n_subjects":2,"n_trials":4,'
            '"observation_noise":1.0},"seed":5}'
        )

    def test_hash_depends_on_values(self):
        a = config_from_dict(TINY)
        b = config_from_dict({**TINY, "seed": 6})
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == config_from_dict(dict(TINY)).config_hash()

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, seed_override=99)
        assert cfg.seed == 99

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "none.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    cfg_path = write_config(root)
    data, out = root / "data", root / "out"
    for command in ("simulate", "train", "rates", "report"):
        code = main([command, "--config", str(cfg_path), "--data", str(data), "--out", str(out)])
        assert code == 0, command
    return root, cfg_path, data, out


class TestPipeline:
    def test_dataset_layout(self, run_dirs):
        _, _, data, _ = run_dirs
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["subjects"] == ["s01", "s02"]
        assert manifest["rng"] == "philox4x64-10"
        files = sorted(p.name for p in (data / "s01").iterdir())
        assert "t001_eeg.csv" in files and "t001_att.csv" in files and "t001_dst.csv" in files
        assert "t001_eeg.json" in files

    def test_decoders_written(self, run_dirs):
        _, _, _, out = run_dirs
        for subject in ("s01", "s02"):
            for cond in ("attended", "distractor"):
                doc = json.loads((out / "decoders" / f"{subject}_{cond}.json").read_text())
                assert doc["format_version"] == 1
                assert doc["lambda"] in (1.0, 100.0)
                assert len(doc["meta"]["cv_mean_rho"]) == 2

    def test_rates_records(self, run_dirs):
        _, _, _, out = run_dirs
        lines = read_nonmeta_lines(out / "rates.ndjson")
        assert len(lines) == 2 * 4 * 2  # subjects x trials x conditions
        for line in lines:
            rec = json.loads(line)
            assert rec["r_min"] == min(rec["r_s_to_shat"], rec["r_e_to_shat"], rec["r_s_to_e"])
            assert rec["r_min"] >= 0.0

    def test_rd_points_per_kind(self, run_dirs):
        _, _, _, out = run_dirs
        lines = read_nonmeta_lines(out / "rd_points.ndjson")
        assert len(lines) == 2 * 4 * 2 * 4  # ... x rate kinds
        kinds = {json.loads(l)["rate_kind"] for l in lines}
        assert kinds == {"S_to_Shat", "E_to_Shat", "S_to_E", "Rmin"}

    def test_rate_keys_are_the_one_kind_table(self, run_dirs):
        # the rate kinds are the table's keys, in order, and each kind's key
        # is a key of every written record
        _, _, _, out = run_dirs
        assert RATE_KINDS == tuple(RATE_KEYS)
        for line in read_nonmeta_lines(out / "rates.ndjson"):
            assert set(RATE_KEYS.values()) <= json.loads(line).keys()

    def test_rates_parses_each_decoder_file_once(self, run_dirs, monkeypatch):
        # the config hash and the decoder are both read from one parse
        from redflow import decoder, signals

        _, cfg_path, data, out = run_dirs
        parsed = []
        read_json = signals.read_json

        def counting(path):
            parsed.append(Path(path))
            return read_json(path)

        for module in (signals, decoder):
            monkeypatch.setattr(module, "read_json", counting)
        assert main(["rates", "--config", str(cfg_path), "--data", str(data), "--out", str(out)]) == 0
        decoders = sorted(p.name for p in parsed if p.parent.name == "decoders")
        assert decoders == sorted(p.name for p in (out / "decoders").glob("*.json"))
        assert len(decoders) == 4

    def test_report_reads_the_rate_records(self, run_dirs, tmp_path):
        # report needs no rd_points.ndjson: it reads rates.ndjson, and each
        # record's four rd_points.ndjson lines are written from the record
        root, cfg_path, data, out = run_dirs
        records = [json.loads(l) for l in read_nonmeta_lines(out / "rates.ndjson")]
        points = [json.loads(l) for l in read_nonmeta_lines(out / "rd_points.ndjson")]
        assert len(points) == 4 * len(records)
        for i, record in enumerate(records):
            for kind, point in zip(RATE_KINDS, points[4 * i : 4 * i + 4]):
                assert point["rate_kind"] == kind
                assert point["rate"] == record[RATE_KEYS[kind]]
                for key in ("distortion", "condition", "subject_id", "trial_id"):
                    assert point[key] == record[key], key
                assert point["distortion_db"] == to_db(record["distortion"])
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "rd_points.ndjson").unlink()
        for name in ("pdf.csv", "rd_curve.csv", "fits.json"):
            (copy / name).unlink()
        assert main(["report", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(copy)]) == 0
        for name in ("pdf.csv", "rd_curve.csv", "fits.json"):
            assert strip_timestamp(copy / name) == strip_timestamp(out / name), name

    def test_rd_points_null_db_at_zero_distortion(self, tmp_path):
        # a perfect reconstruction has no dB value: its lines carry null
        record = {
            "condition": "attended", "subject_id": "s01", "trial_id": "t001", "distortion": 0.0,
            "r_s_to_shat": 0.03, "r_e_to_shat": 0.02, "r_s_to_e": 0.01, "r_min": 0.01,
        }
        cli._write_rates(RunConfig(), tmp_path, [record], None)
        lines = read_nonmeta_lines(tmp_path / "rd_points.ndjson")
        assert [json.loads(l)["rate_kind"] for l in lines] == list(RATE_KINDS)
        for line in lines:
            assert '"distortion_db": null' in line
            assert json.loads(line)["distortion"] == 0.0

    def test_fits_has_eight_cells(self, run_dirs):
        _, _, _, out = run_dirs
        doc = json.loads((out / "fits.json").read_text())
        fits = doc["fits"]
        assert set(fits) == {"S_to_Shat", "E_to_Shat", "S_to_E", "Rmin"}
        cells = [fits[k][c] for k in fits for c in ("attended", "distractor")]
        assert len(cells) == 8
        for cell in cells:
            assert ("slope" in cell) or ("error" in cell)

    def test_config_hash_embedded_everywhere(self, run_dirs):
        root, cfg_path, data, out = run_dirs
        expected = load_config(cfg_path).config_hash()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["config_hash"] == expected
        sidecar = json.loads((data / "s01" / "t001_eeg.json").read_text())
        assert sidecar["config_hash"] == expected
        metas = output_metas(out)
        assert len(metas) == 4 + 5  # decoders, then the rates and report files
        for name, meta in metas.items():
            assert meta["config_hash"] == expected, name
            assert meta["data_config_hash"] == expected, name

    def test_records_carry_the_readme_keys(self, run_dirs):
        _, _, _, out = run_dirs
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        bullet = text.split("- `out/rates.ndjson`", 1)[1].split("\n- ", 1)[0]
        documented = set(re.findall(r"`([^`]+)`", bullet))
        assert len(documented) == 14
        for line in read_nonmeta_lines(out / "rates.ndjson"):
            record = json.loads(line)
            assert set(record) == documented
            assert record["embed"] == TINY["embed"]

    def test_report_refuses_other_config(self, run_dirs, tmp_path):
        root, cfg_path, data, out = run_dirs
        other = write_config(tmp_path, doc={**TINY, "seed": 123}, name="other.json")
        code = main(["report", "--config", str(other), "--data", str(data), "--out", str(out)])
        assert code == 3

    def test_rates_refuses_decoders_of_other_config(self, run_dirs, tmp_path, capsys):
        # decoders trained with lambda 1e-06 and 100 are not rated under a
        # config whose lambda grid is [1e6]
        root, cfg_path, data, out = run_dirs
        other = write_config(tmp_path, doc={**TINY, "lambda_grid": [1e6]}, name="other.json")
        before = (out / "rates.ndjson").read_text()
        capsys.readouterr()
        assert main(["rates", "--config", str(other), "--data", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "s01_attended.json" in err and "config hash mismatch" in err
        assert (out / "rates.ndjson").read_text() == before

    def test_all_matches_four_stages(self, run_dirs, tmp_path):
        _, cfg_path, data, out = run_dirs
        all_data, all_out = tmp_path / "data", tmp_path / "out"
        assert main(["all", "--config", str(cfg_path), "--data", str(all_data),
                     "--out", str(all_out)]) == 0
        for staged, merged in ((data, all_data), (out, all_out)):
            names = sorted(p.relative_to(staged) for p in staged.rglob("*") if p.is_file())
            assert names == sorted(
                p.relative_to(merged) for p in merged.rglob("*") if p.is_file()
            )
            for name in names:
                assert strip_timestamp(merged / name) == strip_timestamp(staged / name), name

    def test_all_reads_nothing_back(self, tmp_path, monkeypatch):
        from redflow import decoder, signals

        def refuse(*args, **kwargs):
            raise AssertionError("all must not read its own files back")

        for module, name in ((signals, "read_recording"), (cli, "load_trials"),
                             (decoder, "load_decoder"), (cli, "read_rates")):
            monkeypatch.setattr(module, name, refuse)
        cfg_path = write_config(tmp_path)
        assert main(["all", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")]) == 0

    def test_conditions_share_each_factorisation(self, monkeypatch):
        # one subject, both conditions: one eigendecomposition per fold
        # serves every lambda and both conditions, and one more serves every
        # chosen lambda of the pooled fit (one factorisation per (fold, lambda)
        # system and per chosen lambda would make 2 * 4 + 1 or more)
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            # a stack of Grams (one per fold) is that many decompositions
            calls.append(int(np.prod(np.shape(a)[:-2])))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        use_cpus(monkeypatch, 1)
        config = config_from_dict(TINY)
        trials = make_aad_scenario(config.scenario(), rate_hz=config.rate_hz, subjects=[0])
        fitted = cli.train_decoders(config, trials, ("attended", "distractor"))
        assert sorted(fitted) == [("s01", "attended"), ("s01", "distractor")]
        assert sum(calls) == config.n_trials + 1

    @pytest.mark.parametrize("doc", [{}, TINY], ids=["default", "tiny"])
    def test_cv_curve_matches_direct_cholesky_solves(self, doc, monkeypatch):
        # each (fold, lambda) system factorised and solved on its own by
        # scipy, and each held-out trial scored by the Pearson correlation
        # of its own design's prediction with the target
        import scipy.linalg

        from redflow import decoder, signals

        use_cpus(monkeypatch, 1)
        config = config_from_dict(doc)
        conditions = ("attended", "distractor")
        trials = make_aad_scenario(config.scenario(), rate_hz=config.rate_hz, subjects=[0])
        fitted = cli.train_decoders(config, trials, conditions)
        window = config.lag_window()
        designs, targets = [], []
        for trial in trials:
            eeg = cli._prep_eeg(config, trial.eeg)
            valid = signals.lag_valid_slice(eeg.n_samples, window)
            designs.append(decoder.build_design(eeg, window))
            targets.append([signals.normalize(cli._stimulus(trial, c)).samples[valid] for c in conditions])
        for k, condition in enumerate(conditions):
            expected = []
            for lam in config.lambda_grid:
                rhos = []
                for i, held_out in enumerate(designs):
                    train_set = [j for j in range(len(designs)) if j != i]
                    system = sum(designs[j].T @ designs[j] for j in train_set)
                    system += lam * np.eye(system.shape[0])
                    rhs = sum(designs[j].T @ targets[j][k] for j in train_set)
                    g = scipy.linalg.cho_solve(scipy.linalg.cho_factor(system), rhs)
                    rhos.append(np.corrcoef(held_out @ g, targets[i][k])[0, 1])
                expected.append(np.mean(rhos))
            np.testing.assert_allclose(fitted[("s01", condition)][1], expected, rtol=1e-12, atol=0)

    def test_conditions_share_each_rate_call(self, monkeypatch):
        # one bound call and one kernel call per trial, whatever the number
        # of conditions (one per trial and condition would make 2 * 4)
        from redflow import redundancy

        counts = {"bound": 0, "kernel": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "directed_redundancy_bound",
                            counting("bound", redundancy.directed_redundancy_bound))
        monkeypatch.setattr(redundancy, "transfer_entropies",
                            counting("kernel", redundancy.transfer_entropies))
        use_cpus(monkeypatch, 1)
        config = config_from_dict(TINY)
        trials = make_aad_scenario(config.scenario(), rate_hz=config.rate_hz, subjects=[0])
        conditions = ("attended", "distractor")
        decoders = cli.train_decoders(config, trials, conditions)
        records, _ = cli.compute_rates(config, trials, decoders, conditions)
        assert len(records) == 2 * config.n_trials
        assert counts == {"bound": config.n_trials, "kernel": config.n_trials}

    def test_a_condition_rated_alone_equals_its_shared_rates(self):
        # sharing a kernel call with the other condition changes no rate,
        # argmin label or other field of a record, bit for bit
        config = config_from_dict(TINY)
        trials = make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
        conditions = ("attended", "distractor")
        decoders = cli.train_decoders(config, trials, conditions)
        both, _ = cli.compute_rates(config, trials, decoders, conditions)
        for condition in conditions:
            alone, _ = cli.compute_rates(config, trials, decoders, (condition,))
            assert alone == [r for r in both if r["condition"] == condition]

    def test_constant_held_out_target_names_the_condition(self):
        # a distractor zero on the rows the decoder sees, +-1 after them: it
        # normalises, with its mean exactly 0, and fails one target only
        config = config_from_dict(TINY)
        trials = make_aad_scenario(config.scenario(), rate_hz=config.rate_hz, subjects=[0])
        n, tau_max = config.n_samples, config.lag_window().tau_max
        flat = np.r_[np.zeros(n - tau_max), np.tile([1.0, -1.0], tau_max // 2)]
        trials[2] = replace(trials[2], distractor=trials[2].distractor.with_samples(flat))
        with pytest.raises(ZeroVarianceSignal, match="^subject s01, distractor: pearson undefined"):
            cli.train_decoders(config, trials, ("attended", "distractor"))

    def test_rates_refuses_a_stimulus_longer_than_its_eeg(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        args = ["--config", str(cfg_path), "--data", str(data), "--out", str(out)]
        for command in ("simulate", "train"):
            assert main([command, *args]) == 0
        stim = data / "s01" / "t002_att.csv"
        with open(stim, "a") as fh:
            fh.writelines(f"{(600 + i) / 64.0},0.5\n" for i in range(5))
        capsys.readouterr()
        assert main(["rates", *args]) == 3
        err = capsys.readouterr().err
        assert "subject s01, trial t002, attended: stimulus length 605 != recording length 600" in err
        assert not (out / "rates.ndjson").exists()
        assert main(["train", *args]) == 3
        assert "subject s01, trial t002: stimulus length 605 != recording length 600" in (
            capsys.readouterr().err
        )

    def test_stage_idempotent(self, run_dirs):
        root, cfg_path, data, out = run_dirs
        before = strip_timestamp(out / "rates.ndjson")
        code = main(["rates", "--config", str(cfg_path), "--data", str(data), "--out", str(out)])
        assert code == 0
        assert strip_timestamp(out / "rates.ndjson") == before


#: SHA-256 of every file ``simulate`` writes for PINNED_CONFIG, recorded
#: before the CSV writer went from a row loop to column-wise repr passes. The
#: bytes are the file format: a writer change may not move one unnoticed.
PINNED_CONFIG = {"seed": 0, "scenario": {"n_subjects": 1, "n_trials": 2, "n_samples": 200}}
PINNED_SHA256 = {
    "manifest.json": "01e91261d334b74cc991d5098e3c7e940ddb25e78e800300690a10106b62b754",
    "s01/t001_att.csv": "ce768ee01aeaad50d7b268dc38b2d60f2065070bf78c8eaa00acb6a86d969c14",
    "s01/t001_dst.csv": "5fbb584c5fa18ff6ef6763624a24873c2399961b4b4a37f1c98529a722c56788",
    "s01/t001_eeg.csv": "2c190a911b32f4f6d9967ce3ad8a3a0f3ed27799084abd2b73c63810a6489d1e",
    "s01/t002_att.csv": "6547ff25e690d5d8fc61fc5d90ccd5134ab82498ac0352ad0a0c7560415cb29b",
    "s01/t002_dst.csv": "6caf9bd3942a05b8923e2734794cb9ce457e1a9f441ffe2523710b2be2301c6a",
    "s01/t002_eeg.csv": "9911b059e544f9833187a9ad6abe06be0c23756dba6f7f79c2214ed60bfc6822",
    **{
        f"s01/t00{t}_{role}.json": "0424c2da7ab2655f17485d862432df4540443760ee143775d041ca9fb5a29b18"
        for t in (1, 2)
        for role in ("att", "dst", "eeg")
    },
}


def test_simulated_dataset_bytes_are_pinned(tmp_path):
    data = tmp_path / "data"
    cfg_path = write_config(tmp_path, doc=PINNED_CONFIG)
    assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
    written = {
        p.relative_to(data).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(data.rglob("*"))
        if p.is_file()
    }
    assert written == PINNED_SHA256


THREE_SUBJECTS = {**TINY, "scenario": {**TINY["scenario"], "n_subjects": 3}}
#: 62 trials: two generation batches (synth._SCENARIO_BATCH is 60).
TWO_BATCHES = {**TINY, "scenario": {**TINY["scenario"], "n_trials": 31, "n_samples": 150}}


def use_cpus(monkeypatch, n):
    """Make ``n`` CPUs look usable, so the subject map uses ``n`` workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def pid_of(group):
    return os.getpid()


def plant_singular(monkeypatch, subjects):
    """Make decoder fitting raise SingularSystem for the given subjects."""
    fit_decoders = cli.decoder.fit_decoders

    def singular_for(*args):
        # the calling frame trains one subject
        if sys._getframe(1).f_locals["subject"] in subjects:
            raise SingularSystem("planted")
        return fit_decoders(*args)

    monkeypatch.setattr(cli.decoder, "fit_decoders", singular_for)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers need the fork start method"
)
class TestSubjectWorkers:
    def test_workers_are_other_processes(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        assert workers._worker_count(3) == 2
        pids = workers._map_groups(pid_of, (), ["s01", "s02", "s03"])
        assert len(pids) == 3 and os.getpid() not in pids
        use_cpus(monkeypatch, 1)
        assert workers._map_groups(pid_of, (), ["s01", "s02", "s03"]) == [os.getpid()] * 3

    def test_in_process_while_other_threads_run(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10.0,))
        other.start()
        try:
            assert workers._worker_count(3) == 1
        finally:
            release.set()
            other.join(10.0)
        assert not other.is_alive()
        assert workers._worker_count(3) == 2

    def test_in_process_inside_a_daemonic_worker(self, monkeypatch):
        # a daemonic process may not start children: a pool there would fail
        use_cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pids = pool.apply(workers._map_groups, (pid_of, (), ["s01", "s02", "s03"]))
        assert len(set(pids)) == 1 and os.getpid() not in pids

    def test_outputs_equal_at_one_and_two_workers(self, monkeypatch):
        config = config_from_dict(THREE_SUBJECTS)
        trials = make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
        conditions = ("attended", "distractor")
        runs = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            decoders = cli.train_decoders(config, trials, conditions)
            records, cells = cli.compute_rates(config, trials, decoders, conditions)
            _, _, fits = cli.build_report(config, cells, conditions)
            runs.append((decoders, records, cells, fits))
        (dec1, records1, cells1, fits1), (dec2, records2, cells2, fits2) = runs
        assert records1 == records2 and fits1 == fits2
        assert list(cells1) == list(cells2) and len(cells1) == 4 * 2
        for key in cells1:
            for a, b in zip(cells1[key], cells2[key]):
                assert a.dtype == b.dtype == np.float64 and np.array_equal(a, b), key
        assert len(records1) == 3 * 4 * 2
        assert list(dec1) == list(dec2)
        for key in dec1:
            (a, rho_a), (b, rho_b) = dec1[key], dec2[key]
            assert np.array_equal(a.weights, b.weights) and rho_a == rho_b
            assert (a.lam, a.channel_labels, a.lag_window) == (b.lam, b.channel_labels, b.lag_window)
            assert not b.weights.flags.writeable

    def test_dataset_equal_at_one_and_two_workers(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, doc=THREE_SUBJECTS)
        trees = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            data = tmp_path / f"data{n}"
            assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
            trees.append({
                p.relative_to(data): p.read_bytes() for p in sorted(data.rglob("*")) if p.is_file()
            })
        assert trees[0] == trees[1]
        assert len(trees[0]) == 1 + 3 * 4 * 6  # the manifest, 3 CSVs and 3 sidecars a trial

    def test_write_error_names_the_earliest_trial(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_config(tmp_path, doc=THREE_SUBJECTS)
        data = tmp_path / "data"
        errors = []
        # into a new directory, and over a dataset from another seed, whose
        # manifest must not outlive the failed run
        for n, earlier_seed in ((1, None), (2, None), (1, "1"), (2, "1")):
            use_cpus(monkeypatch, n)
            if data.exists():
                shutil.rmtree(data)
            if earlier_seed:
                simulate = ["simulate", "--config", str(cfg_path), "--data", str(data)]
                assert main([*simulate, "--seed", earlier_seed]) == 0
            # a later trial fails too: the trial order decides
            for name in ("s01/t002_eeg.csv", "s03/t001_att.csv"):
                (data / name).unlink(missing_ok=True)
                (data / name).mkdir(parents=True)
            capsys.readouterr()
            assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 3
            errors.append(capsys.readouterr().err)
            assert str(data / "s01" / "t002_eeg.csv") in errors[-1]
            assert not (data / "manifest.json").exists()
            assert multiprocessing.active_children() == []
        assert len(set(errors)) == 1

    def test_all_write_error_names_the_earliest_trial(self, tmp_path, monkeypatch, capsys):
        # all dispatches its subject tasks first but reads its writes first:
        # a failed write wins over a failed subject
        plant_singular(monkeypatch, {"s01"})
        cfg_path = write_config(tmp_path, doc=THREE_SUBJECTS)
        data, out = tmp_path / "data", tmp_path / "out"
        errors = []
        for n, earlier_seed in ((1, None), (2, None), (1, "1"), (2, "1")):
            use_cpus(monkeypatch, n)
            if data.exists():
                shutil.rmtree(data)
            if earlier_seed:
                simulate = ["simulate", "--config", str(cfg_path), "--data", str(data)]
                assert main([*simulate, "--seed", earlier_seed]) == 0
            for name in ("s01/t002_eeg.csv", "s03/t001_att.csv"):
                (data / name).unlink(missing_ok=True)
                (data / name).mkdir(parents=True)
            capsys.readouterr()
            assert main(["all", "--config", str(cfg_path), "--data", str(data), "--out", str(out)]) == 3
            errors.append(capsys.readouterr().err)
            assert str(data / "s01" / "t002_eeg.csv") in errors[-1]
            assert not (data / "manifest.json").exists()
            assert not out.exists()
            assert multiprocessing.active_children() == []
        assert len(set(errors)) == 1

    def test_all_numerical_error_names_the_subject(self, tmp_path, monkeypatch, capsys):
        plant_singular(monkeypatch, {"s02", "s03"})
        cfg_path = write_config(tmp_path, doc=THREE_SUBJECTS)
        errors = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            data, out = tmp_path / f"data{n}", tmp_path / f"out{n}"
            capsys.readouterr()
            assert main(["all", "--config", str(cfg_path), "--data", str(data), "--out", str(out)]) == 4
            errors.append(capsys.readouterr().err)
            assert "SingularSystem: subject s02: planted" in errors[-1]
            # the dataset was written in full before the subjects were read
            assert (data / "manifest.json").is_file()
            assert len([p for p in data.rglob("*") if p.is_file()]) == 1 + 3 * 4 * 6
            assert not out.exists()
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1]

    def test_all_equal_at_one_and_two_workers(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, doc=THREE_SUBJECTS)
        trees = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            run = tmp_path / f"run{n}"
            args = ["--config", str(cfg_path), "--data", str(run / "data"), "--out", str(run / "out")]
            assert main(["all", *args]) == 0
            trees.append({
                p.relative_to(run): strip_timestamp(p) for p in sorted(run.rglob("*")) if p.is_file()
            })
        assert trees[0] == trees[1]
        # the dataset; two decoders a subject, the two rate files and the report
        assert len(trees[0]) == (1 + 3 * 4 * 6) + (3 * 2 + 2 + 3)

    def test_analyze_scenario_equals_the_staged_functions(self, monkeypatch):
        config = config_from_dict(THREE_SUBJECTS)
        for conditions in (("attended", "distractor"), ("distractor",)):
            trials = make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
            decoders = cli.train_decoders(config, trials, conditions)
            _, cells = cli.compute_rates(config, trials, decoders, conditions)
            _, _, staged = cli.build_report(config, cells, conditions)
            for n in (1, 2):
                use_cpus(monkeypatch, n)
                assert cli.analyze_scenario(config, conditions) == staged

    def test_one_pool_per_command(self, tmp_path, monkeypatch):
        # each pool forks its workers: a fixed cost per pool
        started = []

        class CountingPool(workers.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(workers, "ProcessPoolExecutor", CountingPool)
        use_cpus(monkeypatch, 2)

        def pools_of(doc, run):
            cfg_path = write_config(tmp_path, doc=doc, name=f"{run}.json")
            args = ["--config", str(cfg_path), "--data", str(tmp_path / run / "data"),
                    "--out", str(tmp_path / run / "out")]
            pools = {}
            for command in ("all", "simulate", "train", "rates", "report"):
                started.clear()
                assert main([command, *args]) == 0
                pools[command] = list(started)
            started.clear()
            cli.analyze_scenario(load_config(cfg_path))
            pools["analyze_scenario"] = list(started)
            return pools

        # 12 trials make one generation batch, which runs in-process
        assert pools_of(THREE_SUBJECTS, "one_batch") == {
            "all": [2], "simulate": [2], "train": [2], "rates": [2], "report": [],
            "analyze_scenario": [2],
        }
        # 62 trials make two: simulate and all generate them in a pool of
        # their own; analyze_scenario generates one subject (one batch) a task
        assert pools_of(TWO_BATCHES, "two_batches") == {
            "all": [2, 2], "simulate": [2, 2], "train": [2], "rates": [2], "report": [],
            "analyze_scenario": [2],
        }

    def test_error_names_the_earliest_subject(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_config(tmp_path, doc=THREE_SUBJECTS)
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        # s03 fails on an earlier trial than s02: the subject order decides
        for name in ("s02/t002_att.csv", "s03/t001_att.csv"):
            stim = data / name
            stim.write_text("\n".join(stim.read_text().splitlines()[:-10]) + "\n")
        config, trials = load_config(cfg_path), cli.load_trials(data)[0]
        codes = []
        for n in (1, 2):
            use_cpus(monkeypatch, n)
            with pytest.raises(ShapeMismatch, match="^subject s02, trial t002: stimulus length"):
                cli.train_decoders(config, trials, ("attended",))
            capsys.readouterr()
            out = tmp_path / f"out{n}"
            codes.append(main(["train", "--config", str(cfg_path), "--data", str(data), "--out", str(out)]))
            assert "subject s02, trial t002" in capsys.readouterr().err
            assert not out.exists()
            assert multiprocessing.active_children() == []
        assert codes == [3, 3]

    def test_no_worker_outlives_main(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        threads = threading.active_count()
        cfg_path = write_config(tmp_path, doc=THREE_SUBJECTS)
        args = ["--config", str(cfg_path), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
        assert main(["all", *args]) == 0
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

        def broken(*_):
            raise RuntimeError("broken solver")

        monkeypatch.setattr(cli.decoder, "fit_decoders", broken)
        with pytest.raises(RuntimeError, match="broken solver"):
            main(["train", *args])
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads


class TestPipelineVariants:
    def test_outputs_name_the_dataset_config(self, tmp_path):
        # data simulated at seed 1, the later stages run at seed 5: every
        # output names both configs, and the run is not refused
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        args = ["--config", str(cfg_path), "--data", str(data), "--out", str(out)]
        assert main(["simulate", *args, "--seed", "1"]) == 0
        for command in ("train", "rates", "report"):
            assert main([command, *args, "--seed", "5"]) == 0, command
        data_hash = load_config(cfg_path, seed_override=1).config_hash()
        run_hash = load_config(cfg_path, seed_override=5).config_hash()
        assert data_hash != run_hash
        assert json.loads((data / "manifest.json").read_text())["config_hash"] == data_hash
        for name, meta in output_metas(out).items():
            assert meta["config_hash"] == run_hash, name
            assert meta["data_config_hash"] == data_hash, name

    def test_condition_filter(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        for command in ("simulate", "train", "rates", "report"):
            code = main([
                command, "--config", str(cfg_path), "--data", str(data),
                "--out", str(out), "--condition", "attended",
            ])
            assert code == 0
        lines = read_nonmeta_lines(out / "rates.ndjson")
        assert all(json.loads(l)["condition"] == "attended" for l in lines)
        fits = json.loads((out / "fits.json").read_text())["fits"]
        assert set(fits["S_to_Shat"]) == {"attended"}

    def test_rate_kind_filter(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        for command in ("simulate", "train", "rates"):
            assert main([command, "--config", str(cfg_path), "--data", str(data), "--out", str(out)]) == 0
        assert main([
            "report", "--config", str(cfg_path), "--data", str(data),
            "--out", str(out), "--rate-kind", "Rmin",
        ]) == 0
        fits = json.loads((out / "fits.json").read_text())["fits"]
        assert set(fits) == {"Rmin"}

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        code = main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out")])
        assert code == 3

    def test_missing_trial_is_data_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        for path in (data / "s02").glob("t003_*"):
            path.unlink()
        with pytest.raises(DataError, match="subject s02"):
            cli.load_trials(data)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 3
        assert "subject s02" in capsys.readouterr().err

    def test_identity_comes_from_the_layout(self, tmp_path):
        # a sidecar that names another subject changes nothing: each
        # (subject, trial, condition) is rated once, by its own decoder
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        args = ["--config", str(cfg_path), "--data", str(data), "--out", str(out)]
        assert main(["simulate", *args]) == 0
        sidecar = data / "s02" / "t001_eeg.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "subject_id": "s01"}))
        for command in ("train", "rates"):
            assert main([command, *args]) == 0, command
        records = [json.loads(l) for l in read_nonmeta_lines(out / "rates.ndjson")]
        keys = [(r["subject_id"], r["trial_id"], r["condition"]) for r in records]
        n_subjects, n_trials = TINY["scenario"]["n_subjects"], TINY["scenario"]["n_trials"]
        assert sorted(keys) == [
            (f"s{s:02d}", f"t{t:03d}", c)
            for s in range(1, n_subjects + 1)
            for t in range(1, n_trials + 1)
            for c in ("attended", "distractor")
        ]

    def test_short_stimulus_names_the_trial(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        stim = data / "s01" / "t001_att.csv"
        stim.write_text("\n".join(stim.read_text().splitlines()[:-10]) + "\n")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--data", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "subject s01, trial t001" in err and "stimulus length" in err

    @pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
    def test_malformed_input_file_is_data_error(self, tmp_path, capsys, case):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        args = ["--config", str(cfg_path), "--data", str(data), "--out", str(out)]
        assert main(["all", *args]) == 0
        command, name, lineno, edit = MALFORMED_INPUTS[case]
        path = tmp_path / name
        if lineno is None:
            path.write_text(edit(path.read_text()))
        else:
            lines = path.read_text().split("\n")
            lines[lineno - 1] = edit(lines[lineno - 1])
            path.write_text("\n".join(lines))
        capsys.readouterr()
        assert main([command, *args]) == 3
        err = capsys.readouterr().err
        assert path.name in err
        assert MALFORMED_MESSAGES.get(case, "") in err
        if name == RATES:
            assert f"line {lineno}:" in err

    @pytest.mark.parametrize("doc, message", [
        ({"kde_level": -1}, "kde_level must be >= 0"),
        ({"bin_width_bits": 0}, "bin widths must be > 0"),
        ({"lambda_grid": [-1.0]}, "lambda_grid values must be >= 0"),
        ({"lag_window_ms": [10, 0]}, "lag_window_ms must be (lo, hi), got (10.0, 0.0)"),
        ({"lag_window_ms": [0]}, "lag_window_ms must be (lo, hi), got (0.0,)"),
        ({"embed": 3}, "embed must be a JSON object"),
    ], ids=repr)
    def test_config_refusal_exit_code_and_message(self, tmp_path, capsys, doc, message):
        path = write_config(tmp_path, doc=doc)
        assert main(["simulate", "--config", str(path), "--data", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("case", ["subject-directory", "subject-trials", "rates-file", "rates-header"])
    def test_missing_input_exit_code_and_message(self, tmp_path, capsys, case):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        args = ["--config", str(cfg_path), "--data", str(data), "--out", str(out)]
        assert main(["all", *args]) == 0
        if case == "subject-directory":
            shutil.rmtree(data / "s02")
            command, message = "train", f"missing subject directory: {data / 's02'}"
        elif case == "subject-trials":
            for path in (data / "s02").glob("*_eeg.csv"):
                path.unlink()
            command, message = "rates", f"no trials found under {data / 's02'}"
        elif case == "rates-file":
            (out / "rates.ndjson").unlink()
            command, message = "report", f"rate records not found: {out / 'rates.ndjson'}"
        else:
            rates = out / "rates.ndjson"
            rates.write_text(rates.read_text().removeprefix("# meta "))
            command, message = "report", f"{rates}: missing metadata header line"
        capsys.readouterr()
        assert main([command, *args]) == 3
        assert capsys.readouterr().err == f"data error: DataError: {message}\n"

    def test_too_few_trials_is_a_fits_error(self, tmp_path):
        # one subject with 4 trials gives each cell 4 points: every cell is an
        # error entry, and the run still succeeds
        doc = {**TINY, "scenario": {**TINY["scenario"], "n_subjects": 1}}
        cfg_path = write_config(tmp_path, doc=doc)
        out = tmp_path / "out"
        assert main(["all", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == 0
        fits = json.loads((out / "fits.json").read_text())["fits"]
        assert fits == {
            kind: {c: {"error": f"TooFewSamples: {kind}/{c}: need >= 5 points, got 4"}
                   for c in ("attended", "distractor")}
            for kind in RATE_KINDS
        }

    def test_compute_rates_needs_every_decoder(self, monkeypatch):
        use_cpus(monkeypatch, 1)
        config = config_from_dict(TINY)
        trials = make_aad_scenario(config.scenario(), rate_hz=config.rate_hz, subjects=[0])
        decoders = cli.train_decoders(config, trials, ("distractor",))
        with pytest.raises(DataError, match="^no decoder for subject s01, attended$"):
            cli.compute_rates(config, trials, decoders, ("attended", "distractor"))

    def test_manifest_without_trial_count_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["trials_per_subject"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="trials_per_subject"):
            cli.load_trials(data)

    def test_manifest_with_text_trial_count_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["trials_per_subject"] = str(manifest["trials_per_subject"])
        (data / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="trials_per_subject must be an integer"):
            cli.load_trials(data)

    def test_manifest_with_repeated_subject_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["subjects"] = ["s01", "s02", "s01"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="distinct strings"):
            cli.load_trials(data)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lambda_grid": []}))
        assert main(["simulate", "--config", str(path), "--data", str(tmp_path / "d")]) == 2
        capsys.readouterr()
        path.write_text(json.dumps({"lag_window_ms": [0, 1e308]}))
        assert main(["simulate", "--config", str(path), "--data", str(tmp_path / "d")]) == 2
        assert "lag_window_ms" in capsys.readouterr().err
        (tmp_path / "broken.json").write_text("{bad")
        for name in ("missing.json", "broken.json"):
            capsys.readouterr()
            path = tmp_path / name
            assert main(["simulate", "--config", str(path), "--data", str(tmp_path / "d")]) == 2
            assert name in capsys.readouterr().err

    def test_unknown_channel_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        bad = write_config(tmp_path, doc={**TINY, "channel_subset": ["XX"]}, name="bad.json")
        assert main(["train", "--config", str(bad), "--data", str(data), "--out", str(out)]) == 3

    def test_other_sampling_rate_is_data_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        fast = write_config(tmp_path, doc={**TINY, "rate_hz": 128}, name="fast.json")
        capsys.readouterr()
        assert main(["train", "--config", str(fast), "--data", str(data), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        for part in ("subject s01", "trial t001", "64.0 Hz", "128.0 Hz"):
            assert part in err
        assert not list(out.glob("decoders/*.json"))

    def test_constant_stimulus_is_numerical_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        # tamper one stimulus file into a constant signal
        target = data / "s01" / "t001_att.csv"
        lines = target.read_text().splitlines()
        header = lines[0]
        n = len(lines) - 1
        target.write_text("\n".join([header] + [f"{i / 64.0},1.0" for i in range(n)]) + "\n")
        assert main(["train", "--config", str(cfg_path), "--data", str(data), "--out", str(out)]) == 4

    def test_all_runs_end_to_end(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["all", "--config", str(cfg_path), "--data", str(data), "--out", str(out)]) == 0
        assert (out / "fits.json").exists()

    def test_empty_dataset_yields_no_points(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(json.dumps({
            "schema_version": 1, "config_hash": "x", "seed": 0, "rng": "philox4x64-10",
            "rate_hz": 64.0, "subjects": [], "trials_per_subject": 0, "n_samples": 0,
        }))
        code = main(["rates", "--config", str(cfg_path), "--data", str(data), "--out", str(tmp_path / "out")])
        assert code == 3  # NoPoints

    def test_train_reaches_noise_ceiling(self, tmp_path):
        # planted-decoder dataset written in the pipeline's own format; the
        # generative snr fixes the reachable correlation at sqrt(snr/(1+snr))
        from redflow import decoder as dec_mod
        from redflow import signals as sig_mod
        from redflow.signals import LagWindow, MultichannelRecording, lag_valid_slice

        rng = np.random.default_rng(123)
        n, snr, window = 2000, 4.0, LagWindow(0, 8)
        labels = ("FT7", "T7", "TP7", "CP5", "FC5", "C5")
        g_true = 0.1 * rng.standard_normal(len(labels) * window.n_lags)
        data = tmp_path / "data"
        for subject in ("s01", "s02"):
            (data / subject).mkdir(parents=True)
            for t in range(1, 5):
                eeg = MultichannelRecording(labels, 64.0, [rng.standard_normal(n) for _ in labels])
                design = dec_mod.build_design(eeg, window)
                signal = design @ g_true
                noise_sd = float(np.std(signal)) / np.sqrt(snr)
                stim = np.zeros(n)
                stim[lag_valid_slice(n, window)] = (
                    signal + noise_sd * rng.standard_normal(signal.size)
                )
                base = data / subject / f"t{t:03d}"
                sig_mod.write_recording(eeg, Path(str(base) + "_eeg.csv"))
                for suffix in ("att", "dst"):
                    rec = MultichannelRecording(("envelope",), 64.0, [stim])
                    sig_mod.write_recording(rec, Path(str(base) + f"_{suffix}.csv"))
        (data / "manifest.json").write_text(json.dumps({
            "schema_version": 1, "config_hash": "planted", "seed": 0,
            "rng": "philox4x64-10", "rate_hz": 64.0, "subjects": ["s01", "s02"],
            "trials_per_subject": 4, "n_samples": n,
        }))
        doc = {**TINY, "lag_window_ms": [0, 125], "lambda_grid": [10.0**k for k in range(-4, 5)]}
        cfg_path = write_config(tmp_path, doc=doc)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(out), "--condition", "attended"]) == 0
        ceiling = np.sqrt(snr / (1.0 + snr))
        for subject in ("s01", "s02"):
            meta = json.loads((out / "decoders" / f"{subject}_attended.json").read_text())["meta"]
            assert max(meta["cv_mean_rho"]) >= 0.8 * ceiling

    def test_unknown_condition_refused(self):
        config = config_from_dict(TINY)
        trials = make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
        with pytest.raises(ConfigError, match="unknown condition 'atended'"):
            cli.train_decoders(config, trials, ("atended",))

    def test_attended_rate_exceeds_distractor_on_asymmetric_coupling(self, tmp_path):
        doc = {
            **TINY,
            "seed": 7,
            "scenario": {"n_subjects": 2, "n_trials": 6, "n_samples": 3200,
                         "attended_coupling": 0.12, "distractor_coupling": 0.03},
        }
        config = config_from_dict(doc)
        from redflow import synth

        trials = synth.make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
        decs = cli.train_decoders(config, trials, ("attended", "distractor"))
        records, _ = cli.compute_rates(config, trials, decs, ("attended", "distractor"))
        att = np.median([r["r_s_to_shat"] for r in records if r["condition"] == "attended"])
        dst = np.median([r["r_s_to_shat"] for r in records if r["condition"] == "distractor"])
        assert att > dst

    def test_report_null_p_values_uniform(self):
        # exchangeable null: rates and distortions drawn independently; the
        # report's significance test must hold its nominal level (the binned
        # display curve is unaffected). 300 seeds, default (raw) fit mode.
        config = RunConfig()
        hits = 0
        pvals = []
        n_seeds = 300
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            rates, distortions = rng.uniform(0.0, 0.05, 120), rng.uniform(0.2, 0.9, 120)
            cells = {("S_to_Shat", "attended"): (rates, distortions)}
            _, _, fits = cli.build_report(config, cells, ("attended",), ("S_to_Shat",))
            p = fits["S_to_Shat"]["attended"]["p_value"]
            pvals.append(p)
            hits += p < 0.05
        assert abs(hits / n_seeds - 0.05) < 0.04
        ks = float(np.max(np.abs(np.sort(pvals) - (np.arange(n_seeds) + 1) / n_seeds)))
        assert ks < 0.1

    def test_binned_fit_uses_curve_rows(self):
        from redflow import analysis, synth

        config = config_from_dict({**TINY, "fit_on": "binned"})
        conditions = ("attended", "distractor")
        trials = synth.make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
        decs = cli.train_decoders(config, trials, conditions)
        _, rd_cells = cli.compute_rates(config, trials, decs, conditions)
        _, curve_rows, fits = cli.build_report(config, rd_cells, conditions)
        fitted = 0
        for kind, cells in fits.items():
            for cond, cell in cells.items():
                rows = [r.split(",") for r in curve_rows[1:] if r.startswith(f"{kind},{cond},")]
                if "error" in cell:
                    assert len(rows) < 3 and cell["error"].startswith("TooFewSamples")
                    continue
                fitted += 1
                assert cell["n_points"] == len(rows)
                centers = [float(r[2]) for r in rows]
                means = [float(r[3]) for r in rows]
                assert cell["slope"] == analysis.fit_linear(centers, means).slope
        assert fitted >= 4

    def test_in_memory_matches_file_pipeline(self, tmp_path):
        # the analyze_scenario shortcut must agree with the file-backed run
        cfg_path = write_config(tmp_path)
        config = load_config(cfg_path)
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["all", "--config", str(cfg_path), "--data", str(data), "--out", str(out)]) == 0
        file_fits = json.loads((out / "fits.json").read_text())["fits"]
        mem_fits = cli.analyze_scenario(config)
        for kind in file_fits:
            for cond in file_fits[kind]:
                a, b = file_fits[kind][cond], mem_fits[kind][cond]
                if "error" in a:
                    assert a["error"] == b["error"]
                else:
                    assert a["slope"] == pytest.approx(b["slope"], rel=1e-12)
                    assert a["p_value"] == pytest.approx(b["p_value"], rel=1e-9)


class TestNumpyOnly:
    """The package runs on numpy alone: scipy is a test dependency."""

    @staticmethod
    def run_python(code, *args):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_import_loads_no_scipy(self):
        done = self.run_python(
            "import sys; import redflow, redflow.cli, redflow.synth; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_all_runs_with_scipy_blocked(self, tmp_path):
        # a None entry makes every `import scipy...` fail, here and in the
        # forked subject workers (two usable CPUs are reported, so two)
        code = (
            "import os, sys; sys.modules['scipy'] = None; "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            "from redflow import cli; sys.exit(cli.main(sys.argv[1:]))"
        )
        cfg_path = write_config(tmp_path)
        done = self.run_python(code, "all", "--config", str(cfg_path),
                               "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "fits.json").is_file()
