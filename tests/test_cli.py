"""Configuration handling and the file-backed pipeline stages."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from redflow import cli
from redflow.cli import RunConfig, config_from_dict, load_config, main
from redflow.errors import ConfigError, DataError


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
                             (decoder, "load_decoder"), (cli, "read_rd_points")):
            monkeypatch.setattr(module, name, refuse)
        cfg_path = write_config(tmp_path)
        assert main(["all", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")]) == 0

    def test_stage_idempotent(self, run_dirs):
        root, cfg_path, data, out = run_dirs
        before = strip_timestamp(out / "rates.ndjson")
        code = main(["rates", "--config", str(cfg_path), "--data", str(data), "--out", str(out)])
        assert code == 0
        assert strip_timestamp(out / "rates.ndjson") == before


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

    @pytest.mark.parametrize("case", ["decoder-lambda", "point-rate", "sidecar-rate"])
    def test_malformed_input_file_is_data_error(self, tmp_path, capsys, case):
        cfg_path = write_config(tmp_path)
        data, out = tmp_path / "data", tmp_path / "out"
        args = ["--config", str(cfg_path), "--data", str(data), "--out", str(out)]
        assert main(["all", *args]) == 0
        if case == "decoder-lambda":
            command, path = "rates", out / "decoders" / "s01_attended.json"
            doc = json.loads(path.read_text())
            del doc["lambda"]
            path.write_text(json.dumps(doc))
        elif case == "point-rate":
            command, path = "report", out / "rd_points.ndjson"
            lines = path.read_text().splitlines()
            point = json.loads(lines[1])
            del point["rate"]
            path.write_text("\n".join([lines[0], json.dumps(point), *lines[2:]]) + "\n")
        else:
            command, path = "train", data / "s01" / "t002_eeg.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), "rate_hz": "fast"}))
        capsys.readouterr()
        assert main([command, *args]) == 3
        assert path.name in capsys.readouterr().err

    def test_manifest_without_trial_count_is_data_error(self, tmp_path):
        cfg_path = write_config(tmp_path)
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg_path), "--data", str(data)]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["trials_per_subject"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="trials_per_subject"):
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

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lambda_grid": []}))
        assert main(["simulate", "--config", str(path), "--data", str(tmp_path / "d")]) == 2

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
        from redflow.signals import LagWindow, MultichannelRecording, TimeSeries, lag_valid_slice

        rng = np.random.default_rng(123)
        n, snr, window = 2000, 4.0, LagWindow(0, 8)
        labels = ("FT7", "T7", "TP7", "CP5", "FC5", "C5")
        g_true = 0.1 * rng.standard_normal(len(labels) * window.n_lags)
        data = tmp_path / "data"
        for subject in ("s01", "s02"):
            (data / subject).mkdir(parents=True)
            for t in range(1, 5):
                chans = tuple(
                    TimeSeries(lab, 64.0, rng.standard_normal(n)) for lab in labels
                )
                eeg = MultichannelRecording(channels=chans)
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
                    rec = MultichannelRecording(channels=(TimeSeries("envelope", 64.0, stim),))
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
        from redflow.analysis import RateDistortionPoint

        config = RunConfig()
        hits = 0
        pvals = []
        n_seeds = 300
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            pts = [
                RateDistortionPoint(
                    rate=r, distortion=d, condition="attended",
                    subject_id="s", trial_id=f"t{i}", rate_kind="S_to_Shat",
                )
                for i, (r, d) in enumerate(
                    zip(rng.uniform(0.0, 0.05, 120), rng.uniform(0.2, 0.9, 120))
                )
            ]
            _, _, fits = cli.build_report(config, pts, ("attended",), ("S_to_Shat",))
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
        _, points = cli.compute_rates(config, trials, decs, conditions)
        _, curve_rows, fits = cli.build_report(config, points, conditions)
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
