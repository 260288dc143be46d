"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance, including the
runtime budget where one applies.
"""

import time
from decimal import Decimal, getcontext

import numpy as np
from scipy.stats import qmc

from helpers import lse_config, naive_log_density, ranking, score_vector
from iwre.analysis import evaluate_retrieval, oracle_weight_check, row_relevance
from iwre.cli import main
from iwre.dataset import EmbeddingDataset
from iwre.kde import BandwidthSpec, fit_kde, log_mean_exp, scott_bandwidth
from iwre.retrieval import (
    cotrain_weights,
    resample_by_weight,
    select_by_fraction,
)
from iwre.scoring import PriorBatchSpec, ScoreMethod, ScoringConfig, fit_prior_batched
from iwre.synthbench import fig2_probe_indices, generate, make_scenario


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_kde_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 1001))
        d = int(rng.integers(1, 9))
        x = rng.standard_normal((m, d)) * rng.uniform(0.5, 2.0)
        kde = fit_kde(x, BandwidthSpec(rng.uniform(0.5, 4.0)))
        q = rng.standard_normal((10, d)) * 1.5
        got = kde.score_samples(q)
        want = naive_log_density(kde, x, q)
        keep = np.abs(want) > 1e-3
        if keep.any():
            rel = np.max(np.abs(got[keep] - want[keep]) / np.abs(want[keep]))
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(
        1,
        "kde oracle equivalence",
        worst <= 1e-10 and elapsed < 60.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_kde_normalization():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 2)) @ np.array([[1.0, 0.3], [0.0, 0.7]])
    kde = fit_kde(x, BandwidthSpec(2.0))
    sd = np.sqrt(np.diag(kde.covariance_)) * kde.bandwidth_
    lo = x.min(axis=0) - 8 * sd
    hi = x.max(axis=0) + 8 * sd
    pts = lo + qmc.Sobol(d=2, seed=0).random(2**20) * (hi - lo)
    integral = float(np.prod(hi - lo) * np.exp(kde.score_samples(pts)).mean())
    elapsed = time.monotonic() - start
    report(
        2,
        "kde normalization",
        0.98 <= integral <= 1.02 and elapsed < 60.0,
        f"integral {integral:.5f}, {elapsed:.1f}s",
    )


def test_criterion_03_soft_max_limit_law():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    target = rng.uniform(0.0, 10.0, (100, 3))
    pool = rng.uniform(0.0, 10.0, (1500, 3))
    d2 = np.sort(((pool[:, None, :] - target[None, :, :]) ** 2).sum(axis=2), axis=1)
    prior = pool[d2[:, 1] - d2[:, 0] >= 1e-2][:500]
    assert prior.shape[0] == 500
    nn_config = ScoringConfig(ScoreMethod.NN_L2)
    nn_rank = ranking(nn_config.score(target, prior).values)
    lse_rank = ranking(lse_config(1e-4, target).score(target, prior).values)
    limit_ok = np.array_equal(nn_rank, lse_rank)

    fig2 = generate(make_scenario("fig2_toy"))
    cluster, isolated = fig2_probe_indices()
    nn = nn_config.score(fig2.target, fig2.prior).values
    # At the Scott-bandwidth temperature.
    smooth = ScoringConfig(ScoreMethod.LSE).score(fig2.target, fig2.prior).values
    differs = (nn[isolated] > nn[cluster]) and (smooth[cluster] > smooth[isolated])
    elapsed = time.monotonic() - start
    report(
        3,
        "soft-max limit law",
        limit_ok and differs and elapsed < 10.0,
        f"limit rankings equal={limit_ok}, designed fixture differs={differs}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_toy_rank_reversal():
    start = time.monotonic()
    data = generate(make_scenario("fig2_toy"))
    cluster, isolated = fig2_probe_indices()
    nn, dens, iwr = (
        ScoringConfig(method, scale_c=4.0, batch_size=2, num_batches=1, seed=0)
        .score(data.target, data.prior).values
        for method in (ScoreMethod.NN_L2, ScoreMethod.KDE_TARGET, ScoreMethod.IWR)
    )
    ok = (
        dens[cluster] > dens[isolated]
        and iwr[cluster] > iwr[isolated]
        and nn[isolated] > nn[cluster]
    )
    elapsed = time.monotonic() - start
    report(
        4,
        "toy rank reversal",
        ok and elapsed < 1.0,
        f"nn={nn.round(3).tolist()}, kde={dens.round(3).tolist()}, "
        f"iwr={iwr.round(3).tolist()}, {elapsed:.2f}s",
    )


def test_criterion_05_analytic_weight_recovery():
    start = time.monotonic()
    data = generate(make_scenario("gaussian_ratio", rng_seed=0), 10_000, 10_000)
    tk = fit_kde(data.target, BandwidthSpec(1.0))
    pk = fit_prior_batched(
        data.prior, PriorBatchSpec(4096, 8, rng_seed=1), BandwidthSpec(1.0)
    )
    origin = np.array([[0.0]])
    at_origin = tk.score_samples(origin) - log_mean_exp(
        [kde.score_samples(origin) for kde in pk])
    ratio = float(np.exp(at_origin[0]))
    config = ScoringConfig(scale_c=1.0, batch_size=4096, num_batches=8, seed=1)
    scores = config.score(data.target, data.prior)
    check = oracle_weight_check(data.oracle, scores, data.prior)
    elapsed = time.monotonic() - start
    report(
        5,
        "analytic weight recovery",
        1.7 <= ratio <= 2.3 and check.mean_abs_error <= 0.2 and elapsed < 30.0,
        f"ratio at origin {ratio:.3f}, mean abs log-ratio err "
        f"{check.mean_abs_error:.3f}, {elapsed:.1f}s",
    )


def test_criterion_06_self_ratio_zero():
    start = time.monotonic()
    rng = np.random.default_rng(66)
    data = EmbeddingDataset(rng.standard_normal((4000, 8)))
    config = ScoringConfig(scale_c=4.0, batch_size=4000, num_batches=1, seed=0)
    deviation = float(np.abs(config.score(data, data).values).max())
    elapsed = time.monotonic() - start
    report(
        6,
        "self-ratio zero",
        deviation <= 1e-9 and elapsed < 5.0,
        f"max |score| {deviation:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_bandwidth_rule_arithmetic():
    start = time.monotonic()
    getcontext().prec = 30
    reference = float(
        Decimal(4) * ((Decimal(-1) / Decimal(20)) * Decimal(100).ln()).exp()
    )
    got = scott_bandwidth(4.0, 100, 16)
    rel = abs(got - reference) / reference
    halves = scott_bandwidth(2.0, 100, 16) == got / 2.0
    elapsed = time.monotonic() - start
    report(
        7,
        "bandwidth rule arithmetic",
        rel <= 1e-12 and halves and elapsed < 1.0,
        f"rel err {rel:.2e}, halving exact={halves}",
    )


def test_criterion_08_cotrain_weights():
    w = cotrain_weights(10, 30, 0.5)
    exact = w.target_weight_per_sample == 0.05 and (
        w.retrieved_weight_per_sample == 1.0 / 60.0
    )
    total = w.target_weight_per_sample * 10 + w.retrieved_weight_per_sample * 30
    report(
        8,
        "co-training weights",
        exact and abs(total - 1.0) <= 1e-12,
        f"weights ({w.target_weight_per_sample}, "
        f"{w.retrieved_weight_per_sample}), total {total!r}",
    )


def test_criterion_09_selection_arithmetic():
    rng = np.random.default_rng(9)
    sv400 = score_vector(rng.standard_normal(400))
    sv10k = score_vector(rng.standard_normal(10_000))
    n_30pct = select_by_fraction(sv400, 0.3).size
    n_2p5pct = select_by_fraction(sv10k, 0.025).size
    nested = True
    previous = set()
    for fraction in (0.2, 0.3, 0.5, 0.6):
        selected = set(select_by_fraction(sv10k, fraction).selected_indices)
        nested &= previous <= selected
        previous = selected
    report(
        9,
        "selection arithmetic",
        n_30pct == 120 and n_2p5pct == 250 and nested,
        f"30% of 400 -> {n_30pct}, 2.5% of 10000 -> {n_2p5pct}, nested={nested}",
    )


def test_criterion_10_resampling_consistency():
    start = time.monotonic()
    data = generate(make_scenario("gaussian_ratio", rng_seed=19), 100, 100_000)
    z = data.prior.data[:, 0]
    log_ratio = data.oracle.log_ratio(data.prior.data)
    w = np.exp(log_ratio - log_ratio.max())
    wn = w / w.sum()
    mean = float(wn @ z)
    se = float(np.sqrt(np.sum(wn**2 * (z - mean) ** 2)))
    snis_ok = abs(mean - 0.0) <= 3.0 * se

    two_point = score_vector(np.array([np.log(3.0), 0.0]))
    manifest = resample_by_weight(two_point, 1_000_000, rng_seed=42)
    counts = dict(
        zip(manifest.selected_indices.tolist(), manifest.multiplicities.tolist())
    )
    freq = counts.get(0, 0) / 1_000_000
    freq_ok = abs(freq - 0.75) <= 0.002
    elapsed = time.monotonic() - start
    report(
        10,
        "resampling consistency",
        snis_ok and freq_ok and elapsed < 60.0,
        f"weighted mean {mean:.5f} (3se={3 * se:.5f}), freq {freq:.5f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_retrieval_quality_direction():
    start = time.monotonic()
    wins = 0
    margins = []
    for seed in range(10):
        data = generate(make_scenario("cluster_bias", rng_seed=seed))
        relevance = row_relevance(data.prior_metadata, data.task_relevance)
        nn_scores = ScoringConfig(ScoreMethod.NN_L2).score(data.target, data.prior)
        nn = select_by_fraction(nn_scores, 0.1)
        config = ScoringConfig(scale_c=1.0, batch_size=1024, num_batches=4, seed=seed)
        iw = select_by_fraction(config.score(data.target, data.prior), 0.1)
        p_nn = evaluate_retrieval(nn, relevance).precision
        p_iw = evaluate_retrieval(iw, relevance).precision
        wins += p_iw > p_nn
        margins.append(round(p_iw - p_nn, 3))
    elapsed = time.monotonic() - start
    report(
        11,
        "retrieval quality direction",
        wins == 10 and elapsed < 120.0,
        f"wins {wins}/10, precision margins {margins}, {elapsed:.1f}s",
    )


def test_criterion_12_throughput():
    import os

    start = time.monotonic()
    rng = np.random.default_rng(128)
    prior = EmbeddingDataset(rng.standard_normal((130_000, 32)), source_id="prior")
    target = EmbeddingDataset(rng.standard_normal((500, 32)), source_id="target")
    config = ScoringConfig(scale_c=4.0, batch_size=4096, num_batches=8, seed=1)
    scores = config.score(target, prior, threads=os.cpu_count())
    finite = bool(np.isfinite(scores.values).all())
    elapsed = time.monotonic() - start
    report(
        12,
        "throughput at real-data scale",
        finite and elapsed < 600.0,
        f"130000x32 prior vs 500-point target in {elapsed:.1f}s, finite={finite}",
    )


def test_criterion_13_pipeline_determinism(tmp_path):
    def pipeline(out):
        fixtures = out / "synth"
        for argv in (
            ["synth", "--scenario", "gaussian_ratio", "--n-target", "400",
             "--n-prior", "1200", "--seed", "3", "--out", str(fixtures)],
            ["score", "--method", "iwr", "--seed", "5", "--bandwidth-scale", "1.0",
             "--target", str(fixtures / "target.bin"),
             "--prior", str(fixtures / "prior.bin"), "--out", str(out)],
            ["retrieve", "--scores", str(out / "scores.bin"),
             "--target", str(fixtures / "target.bin"),
             "--prior", str(fixtures / "prior.bin"),
             "--meta", str(fixtures / "prior_meta.csv"),
             "--fraction", "0.25", "--out", str(out)],
            ["analyze", "--manifest", str(out / "manifest.json"),
             "--meta", str(fixtures / "prior_meta.csv"),
             "--labels", str(fixtures / "labels.json"), "--out", str(out)],
        ):
            assert main(argv) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    pipeline(a)
    pipeline(b)
    identical = all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in (
            "scores.bin", "scores.json", "manifest.json", "retrieved.bin",
            "retrieved_meta.csv", "weights.csv", "report.json",
        )
    )
    report(13, "pipeline determinism", identical, "byte-identical reruns")
