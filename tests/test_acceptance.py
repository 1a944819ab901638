"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Each criterion is deterministic (fixed seeds) and fails loudly if
its tolerance is exceeded.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from redflow import cli, decoder, synth
from redflow.analysis import fit_linear, t_cdf
from redflow.cli import main
from redflow.decoder import pearson, train
from redflow.infotheory import EmbedSpec, plug_in_bias, transfer_entropy
from redflow.signals import (
    LagWindow,
    MultichannelRecording,
    TimeSeries,
    lag_valid_slice,
    normalize,
)
from redflow.synth import VarModel, analytic_te, simulate


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def random_stable_model(rng, dim, max_radius=0.95):
    a = rng.standard_normal((dim, dim))
    a *= rng.uniform(0.3, max_radius) / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((dim, dim))
    q = b @ b.T + 0.5 * np.eye(dim)
    q /= np.trace(q) / dim
    return VarModel(transition=a, noise_cov=q)


def test_01_te_oracle_agreement():
    """10 random stable VAR models: estimate within max(0.005, 3*bias) of the
    exact Lyapunov-based value at n=1e5, in under 60 s."""
    start = time.time()
    rng = np.random.default_rng(20250809)
    embed = EmbedSpec(source_history=4, target_history=4, delay=1)
    n = 100_000
    tol = max(0.005, 3 * plug_in_bias(n, embed.source_history))
    worst = 0.0
    for i in range(10):
        dim = int(rng.integers(2, 5))
        model = random_stable_model(rng, dim)
        src, tgt = (int(v) for v in rng.choice(dim, size=2, replace=False))
        oracle = analytic_te(model, src, tgt, embed)
        rec = simulate(model, n, seed=1000 + i)
        est = transfer_entropy(rec.channels[src], rec.channels[tgt], embed)
        worst = max(worst, abs(est - oracle))
    elapsed = time.time() - start
    report(
        1,
        worst < tol and elapsed < 60.0,
        f"worst |est-oracle| {worst:.5f} bits (tol {tol}), {elapsed:.1f} s (< 60 s)",
    )


def test_02_null_calibration():
    """Independent white-noise pairs at n=1e5: TE <= 0.003 bits in >= 95/100 seeds."""
    n = 100_000
    embed = EmbedSpec()  # pipeline default embedding
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        src = TimeSeries("x", 64.0, rng.standard_normal(n))
        tgt = TimeSeries("z", 64.0, rng.standard_normal(n))
        if transfer_entropy(src, tgt, embed) <= 0.003:
            hits += 1
    report(2, hits >= 95, f"{hits}/100 seeds below 0.003 bits (need >= 95)")


def test_03_affine_invariance():
    """20 random affine maps on one fixed dataset: TE deviation < 1e-9."""
    model = VarModel(transition=[[0.0, 0.0], [0.5, 0.9]], noise_cov=np.eye(2))
    rec = simulate(model, 20_000, seed=31, rate_hz=64.0)
    embed = EmbedSpec(source_history=3, target_history=3, delay=1)
    x, z = rec.channels
    base = transfer_entropy(x, z, embed)
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(20):
        a, c = rng.uniform(0.1, 10, size=2) * rng.choice([-1.0, 1.0], size=2)
        b, d = rng.uniform(-5, 5, size=2)
        mapped = transfer_entropy(
            x.with_samples(a * x.samples + b), z.with_samples(c * z.samples + d), embed
        )
        worst = max(worst, abs(mapped - base))
    report(3, worst < 1e-9, f"max affine deviation {worst:.2e} (< 1e-9)")


def test_04_mse_correlation_identity():
    """100 random normalized pairs: |mean((a-b)^2)/2 - (1 - rho)| < 1e-12."""
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(64, 4000))
        a = normalize(TimeSeries("a", 64.0, rng.standard_normal(n)))
        b = normalize(
            TimeSeries("b", 64.0, rng.standard_normal(n) + rng.uniform(-1, 1) * a.samples)
        )
        lhs = 0.5 * float(np.mean((a.samples - b.samples) ** 2))
        worst = max(worst, abs(lhs - (1.0 - pearson(a, b))))
    report(4, worst < 1e-12, f"max identity error {worst:.2e} (< 1e-12)")


def test_05_decoder_recovery_and_shrinkage():
    """Planted weights (3 channels, 17 lags, SNR 10, n=1e4, lambda=0):
    max coefficient error < 1e-2; ridge norms monotone on a 13-point grid."""
    rng = np.random.default_rng(42)
    n, window = 10_000, LagWindow(0, 16)
    rec = MultichannelRecording(
        ("c0", "c1", "c2"), 64.0, [rng.standard_normal(n) for _ in range(3)]
    )
    g_true = 0.1 * rng.standard_normal((window.n_lags, 3))
    design = decoder.build_design(rec, window)
    signal = design @ g_true.T.reshape(-1)
    noise_sd = float(np.std(signal)) / math.sqrt(10.0)
    target = np.zeros(n)
    target[lag_valid_slice(n, window)] = signal + noise_sd * rng.standard_normal(signal.size)
    stim = TimeSeries("s", 64.0, target)
    fitted = train(rec, stim, window, 0.0)
    err = float(np.max(np.abs(fitted.weights - g_true)))
    norms = [
        float(np.linalg.norm(train(rec, stim, window, lam).weights))
        for lam in (10.0**k for k in range(-6, 7))
    ]
    monotone = all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    report(
        5,
        err < 1e-2 and monotone,
        f"max coefficient error {err:.4f} (< 0.01), shrinkage monotone: {monotone}",
    )


def test_06_bundle_min_property():
    """200-trial synthetic run: r_min equals the exact minimum on every bundle."""
    config = cli.RunConfig(
        seed=606, n_subjects=10, n_trials=20, n_samples=600,
        lag_window_ms=(0.0, 125.0), lambda_grid=(100.0,),
        embed_source_history=4, embed_target_history=4,
    )
    trials = synth.make_aad_scenario(config.scenario(), rate_hz=config.rate_hz)
    assert len(trials) == 200
    decoders = cli.train_decoders(config, trials, ("attended", "distractor"))
    records, _ = cli.compute_rates(config, trials, decoders, ("attended", "distractor"))
    violations = sum(
        1
        for r in records
        if r["r_min"] != min(r["r_s_to_shat"], r["r_e_to_shat"], r["r_s_to_e"])
        or r["r_min"] < 0
    )
    report(
        6,
        violations == 0 and len(records) == 400,
        f"{violations} violations over {len(records)} bundles from 200 trials",
    )


def test_07_regression_machinery():
    """t-CDF within 1e-5 of quadrature; null p uniform (KS < 0.05 over 1000
    seeds); exact-line fit p < 1e-12."""

    def t_cdf_quadrature(t, dof):
        norm = math.gamma((dof + 1) / 2.0) / (
            math.sqrt(dof * math.pi) * math.gamma(dof / 2.0)
        )
        tail, _ = quad(lambda u: norm * (1 + u * u / dof) ** (-(dof + 1) / 2.0), abs(t), np.inf)
        return 1.0 - tail if t >= 0 else tail

    spots = [(0.0, 5), (2.0, 10), (1.3, 3), (-2.5, 20), (4.0, 7)]
    worst_cdf = max(abs(t_cdf(t, d) - t_cdf_quadrature(t, d)) for t, d in spots)

    rng = np.random.default_rng(77)
    pvals = np.sort(
        [fit_linear(rng.standard_normal(100), rng.standard_normal(100)).p_value for _ in range(1000)]
    )
    grid = (np.arange(1000) + 1) / 1000.0
    ks = float(np.max(np.abs(pvals - grid)))

    x = np.arange(10.0)
    exact_p = fit_linear(x, 2.0 * x + 1.0).p_value

    ok = worst_cdf < 1e-5 and ks < 0.05 and exact_p < 1e-12
    report(
        7,
        ok,
        f"t-CDF worst {worst_cdf:.2e} (< 1e-5), KS {ks:.3f} (< 0.05), exact-line p {exact_p:.1e} (< 1e-12)",
    )


def test_08_attended_trend_reproduction():
    """Strong-attended/weak-distractor scenario (15 subjects x 60 trials,
    n=3200 at 64 Hz): distortion_db falls with the stimulus-to-reconstruction
    rate (negative slope, p < 0.05) in >= 90% of 20 seeds, under 10 minutes."""
    start = time.time()
    hits = 0
    for seed in range(20):
        config = cli.RunConfig(
            seed=seed, n_subjects=15, n_trials=60, n_samples=3200, rate_hz=64.0,
            attended_coupling=0.12, distractor_coupling=0.03,
            lag_window_ms=(0.0, 125.0),
            lambda_grid=tuple(10.0**k for k in range(-2, 5)),
            embed_source_history=8, embed_target_history=8,
        )
        fits = cli.analyze_scenario(config, conditions=("attended",))
        cell = fits["S_to_Shat"]["attended"]
        if "error" not in cell and cell["slope"] < 0.0 and cell["p_value"] < 0.05:
            hits += 1
    elapsed = time.time() - start
    report(
        8,
        hits >= 18 and elapsed < 600.0,
        f"{hits}/20 seeds with negative significant slope (need >= 18), {elapsed:.0f} s (< 600 s)",
    )


def test_09_determinism(tmp_path):
    """Two full `all` runs with the same seed are byte-identical apart from
    the generated_at timestamp in each metadata line."""
    doc = {
        "config_version": 1,
        "seed": 99,
        "scenario": {"n_subjects": 2, "n_trials": 4, "n_samples": 600},
        "lag_window_ms": [0, 125],
        "lambda_grid": [1.0, 100.0],
        "embed": {"source_history": 4, "target_history": 4, "delay": 1},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))

    def normalize_bytes(path):
        text = path.read_text()
        out = []
        for line in text.splitlines():
            if line.startswith("# meta "):
                meta = json.loads(line[len("# meta "):])
                meta.pop("generated_at", None)
                line = "# meta " + json.dumps(meta, sort_keys=True)
            out.append(line)
        if path.name == "fits.json":
            meta_doc = json.loads(text)
            meta_doc["meta"].pop("generated_at", None)
            return json.dumps(meta_doc, sort_keys=True)
        return "\n".join(out)

    snapshots = []
    for run in ("run1", "run2"):
        data, out = tmp_path / run / "data", tmp_path / run / "out"
        assert main(["all", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 0
        files = sorted(
            p for p in list(data.rglob("*")) + list(out.rglob("*")) if p.is_file()
        )
        snapshots.append(
            {str(p.relative_to(tmp_path / run)): normalize_bytes(p) for p in files}
        )
    same_names = set(snapshots[0]) == set(snapshots[1])
    diffs = [k for k in snapshots[0] if snapshots[0][k] != snapshots[1].get(k)]
    report(
        9,
        same_names and not diffs,
        f"{len(snapshots[0])} files compared, differing: {diffs or 'none'}",
    )
