"""Scoring rules: nearest neighbor, soft max, target density, importance weight."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    RECORD_DATA,
    brute_force_min_sq_dists,
    lse_config,
    naive_log_density,
    naive_lse,
    ranking,
    score_vector,
)
from iwre import _blas, _validation, cli
from iwre import kde as kde_module
from iwre import scoring as scoring_module
from iwre.dataset import (
    FORMAT_VERSION,
    MAGIC,
    EmbeddingDataset,
    load_embeddings,
    save_embeddings,
)
from iwre.errors import NumericalError, ValidationError
from iwre.kde import BandwidthSpec, GaussianKde, fit_kde, log_mean_exp, scott_bandwidth
from iwre.scoring import (
    PriorBatchSpec,
    ScoreMethod,
    ScoreVector,
    ScoringConfig,
    fit_prior_batched,
    load_scores,
    save_scores,
)

NN = ScoringConfig(ScoreMethod.NN_L2)
RECORD = score_vector([0.0]).params


def well_spread(rng, n, d, scale=10.0):
    return rng.uniform(0.0, scale, (n, d))


def mapped_float32_prior(path, data):
    """``data`` written as a float32 binary container at ``path``, mapped."""
    header = struct.pack("<4sHBQI", MAGIC, FORMAT_VERSION, 0, *data.shape)
    path.write_bytes(header + data.astype("<f4").tobytes())
    prior = load_embeddings(path)
    assert prior.data.dtype == np.float32
    return prior


def assert_threads_do_not_change(config, target, prior):
    one = config.score(target, prior, threads=1).values
    for threads in (2, 3, 4, 5):
        assert np.array_equal(config.score(target, prior, threads=threads).values,
                              one), threads


class TestScoreVector:
    def test_rejects_positive_nn_scores(self):
        with pytest.raises(ValidationError) as exc:
            score_vector(np.array([0.5, -1.0]), ScoreMethod.NN_L2)
        assert exc.value.code == "bad_scores"

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            score_vector(np.array([np.inf]))

    @pytest.mark.parametrize("values, change, code", [
        ([-1.0, np.nan], {}, "non_finite"),
        (["1.0"], {}, "malformed_value"),
        ([True, 0.5], {}, "malformed_value"),
        ([-1.0], {"method": "bogus"}, "bad_param"),
        ([-1.0], {"method": None}, "bad_param"),
        ([-1.0], {"prior_source_id": None}, "bad_param"),
        ([-1.0], {"target_source_id": 7}, "bad_param"),
        ([-1.0], {"fingerprint_scheme": 1}, "malformed_value"),
        # iwr hashes its seed: a value JSON cannot hold is no record.
        ([-1.0], {"seed": {1: 2, "a": 3}}, "malformed_value"),
        ([-1.0], {"seed": object()}, "malformed_value"),
    ], ids=["nan_score", "string_score", "bool_score", "unknown_method",
            "null_method", "id_not_string", "target_id_not_string", "old_scheme",
            "unsortable_hashed_value", "hashed_value_not_json"])
    def test_refuses_a_bad_value(self, values, change, code):
        with pytest.raises(ValidationError) as exc:
            ScoreVector(values, {**RECORD, **change})
        assert exc.value.code == code

    @pytest.mark.parametrize("params", [[1], "iwr", None, {}],
                             ids=["list", "string", "none", "empty"])
    def test_refuses_what_is_no_record(self, params):
        with pytest.raises(ValidationError) as exc:
            ScoreVector(np.zeros(2), params)
        assert exc.value.code == "malformed_value"
        if params == {}:
            assert "records no scoring configuration" in str(exc.value)
            assert "iwre score" in str(exc.value)

    @pytest.mark.parametrize("key", sorted(RECORD))
    def test_refuses_a_record_missing_a_key(self, key):
        record = {k: v for k, v in RECORD.items() if k != key}
        with pytest.raises(ValidationError) as exc:
            ScoreVector(np.zeros(2), record)
        assert exc.value.code == "malformed_value"
        if key != "fingerprint_scheme":
            assert key in str(exc.value)

    def test_provenance_is_read_from_the_record(self):
        sv = ScoreVector(np.zeros(2), RECORD)
        assert sv.method is ScoreMethod.IWR
        assert (sv.prior_source_id, sv.target_source_id) == ("prior", "target")
        config = ScoringConfig(ScoreMethod.IWR, seed=0)
        assert sv.config_fingerprint == config.fingerprint(*RECORD_DATA)
        with pytest.raises(TypeError):  # the record is the only provenance
            ScoreVector(np.zeros(2), RECORD, method=ScoreMethod.IWR)

    def test_log_space_flag(self):
        assert score_vector(np.zeros(2), ScoreMethod.IWR).log_space
        assert score_vector(np.zeros(2), ScoreMethod.KDE_TARGET).log_space
        assert not score_vector(np.zeros(2), ScoreMethod.NN_L2).log_space
        assert not score_vector(np.zeros(2), ScoreMethod.LSE).log_space

    def test_method_coercion(self):
        sv = score_vector(np.zeros(1), "iwr")
        assert sv.method is ScoreMethod.IWR

    def test_copies_only_a_writeable_array(self):
        values = np.zeros(3)
        sv = score_vector(values)
        values[0] = 1.0
        assert sv.values[0] == 0.0 and not sv.values.flags.writeable
        assert score_vector(sv.values).values is sv.values

    def test_config_score_holds_one_vector(self, tmp_path):
        # Bound fixed before measuring: ScoringConfig(NN_L2).score, at its
        # default one worker, on a mapped 1M-row prior peaks under 1.3x its
        # 7.6 MiB result (2x when each rule's vector was copied again and
        # nn_l2 negated a copy). Each further worker adds its O(tile) scratch.
        rows = 1_000_000
        path = tmp_path / "prior.bin"
        save_embeddings(EmbeddingDataset(np.random.default_rng(4).standard_normal((rows, 2))),
                        path)
        prior = load_embeddings(path)
        target = np.random.default_rng(5).standard_normal((16, 2))
        config = ScoringConfig(ScoreMethod.NN_L2)
        tracemalloc.start()
        try:
            scores = config.score(target, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.values.nbytes == 8 * rows
        assert peak < 1.3 * scores.values.nbytes, peak / scores.values.nbytes

    def test_iwr_holds_two_vectors(self, tmp_path):
        # iwr's target term and prior term are both held at the subtraction,
        # which is made in place: about 2.2x its 7.6 MiB result here, one
        # vector more than a rule that forms its result in one pass.
        rows = 1_000_000
        path = tmp_path / "prior.bin"
        save_embeddings(EmbeddingDataset(np.random.default_rng(4).standard_normal((rows, 2))),
                        path)
        prior = load_embeddings(path)
        target = np.random.default_rng(5).standard_normal((16, 2))
        config = ScoringConfig(seed=0, batch_size=16, num_batches=2)
        tracemalloc.start()
        try:
            scores = config.score(target, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * scores.values.nbytes, peak / scores.values.nbytes

    def test_prior_term_holds_one_batch(self):
        # At most two batches are in flight, so neither the batch KDEs nor
        # the pool's tasks grow with num_batches (1.63 and 4.12 MiB at 2 and
        # 16 batches when every batch KDE was held; 4.00 MiB at 16 when every
        # batch's fit was kept). At 64-row chunks a batch is 47 tasks.
        rng = np.random.default_rng(6)
        prior = EmbeddingDataset(rng.standard_normal((3000, 16)))
        target = rng.standard_normal((50, 16))
        for chunk_rows in (scoring_module._OUTER_CHUNK_ROWS, 64):
            peaks = {}
            for num_batches in (2, 16):
                config = ScoringConfig(batch_size=1024, num_batches=num_batches, seed=0)
                with mock.patch.object(scoring_module, "_OUTER_CHUNK_ROWS", chunk_rows):
                    tracemalloc.start()
                    try:
                        config.score(target, prior)
                        peaks[num_batches] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
            assert peaks[16] <= peaks[2] + 2**19, (chunk_rows, peaks)


class TestNearestNeighbor:
    def test_hand_computed(self):
        target = np.array([[0.0, 0.0], [1.0, 0.0]])
        prior = np.array([[0.4, 0.0]])
        got = NN.score(target, prior).values
        np.testing.assert_allclose(got, [-0.16], atol=1e-15)

    def test_coincident_row_scores_zero(self):
        target = np.array([[1.0, 2.0], [3.0, 4.0]])
        prior = np.array([[3.0, 4.0], [0.0, 0.0]])
        got = NN.score(target, prior).values
        assert got[0] == 0.0
        assert got.max() == 0.0

    def test_exact_match_with_brute_force(self):
        rng = np.random.default_rng(17)
        target = rng.standard_normal((37, 5))
        prior = rng.standard_normal((200, 5))
        got = NN.score(target, prior).values
        want = -brute_force_min_sq_dists(prior, target)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("log_scale", [153.0, 153.5, 153.6, 153.65, 153.7, 154.0,
                                           155.0])
    def test_huge_rows_are_exact_or_refused(self, log_scale):
        # Past about 1e153 the exponents overflow to -inf or NaN, and every
        # real support row is then a candidate: the score is the brute
        # force's, or refused (exit 3) only where that is not finite, with
        # no warning.
        rng = np.random.default_rng(5)
        target = rng.standard_normal((50, 3)) * 10**log_scale
        prior = rng.standard_normal((400, 3)) * 10**log_scale
        with np.errstate(all="ignore"):
            want = -brute_force_min_sq_dists(prior, target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = NN.score(target, prior).values
            except NumericalError as exc:
                assert exc.code == "non_finite_scores"
                assert not np.isfinite(want).all()
                return
        assert np.array_equal(got, want)

    def test_scale_by_power_of_two_is_exact(self):
        rng = np.random.default_rng(2)
        target = rng.standard_normal((20, 3))
        prior = rng.standard_normal((50, 3))
        base = NN.score(target, prior).values
        scaled = NN.score(2.0 * target, 2.0 * prior).values
        assert np.array_equal(scaled, 4.0 * base)

    def test_general_scaling_preserves_ranking(self):
        rng = np.random.default_rng(3)
        target = rng.standard_normal((20, 3))
        prior = rng.standard_normal((50, 3))
        base = NN.score(target, prior).values
        scaled = NN.score(3.0 * target, 3.0 * prior).values
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)
        assert np.array_equal(ranking(base), ranking(scaled))

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            NN.score(np.zeros((2, 2)) + 1, np.ones((2, 3)))
        assert exc.value.code == "dim_mismatch"

    def test_threads_do_not_change_results(self):
        rng = np.random.default_rng(8)
        target = rng.standard_normal((30, 4))
        prior = rng.standard_normal((9000, 4))
        assert_threads_do_not_change(NN, target, prior)

    def test_threads_do_not_change_results_on_a_mapped_float32_prior(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(9)
        target = rng.standard_normal((30, 4))
        prior = mapped_float32_prior(tmp_path / "prior.bin", rng.standard_normal((500, 4)))
        monkeypatch.setattr(scoring_module, "_OUTER_CHUNK_ROWS", 32)  # 16 chunks
        assert_threads_do_not_change(NN, target, prior)


class TestLogSumExp:
    def test_single_target_single_term(self):
        target = np.array([[0.0]])
        got = lse_config(1.0, target).score(target, np.array([[2.0]])).values
        np.testing.assert_allclose(got, [-4.0], atol=1e-12)

    def test_two_equidistant_targets(self):
        target = np.array([[-1.0], [1.0]])
        got = lse_config(1.0, target).score(target, np.array([[0.0]])).values
        np.testing.assert_allclose(got, [np.log(2.0) - 1.0], atol=1e-12)

    def test_small_temperature_recovers_nearest_neighbor(self):
        rng = np.random.default_rng(23)
        target = well_spread(rng, 100, 3)
        pool = well_spread(rng, 2000, 3)
        d2 = np.sort(
            ((pool[:, None, :] - target[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        prior = pool[d2[:, 1] - d2[:, 0] >= 1e-2][:500]
        assert len(prior) == 500
        nn = NN.score(target, prior).values
        lse = lse_config(1e-4, target).score(target, prior).values
        assert np.array_equal(ranking(nn), ranking(lse))
        # per-point nearest target also matches
        expo = -((prior[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmax(expo, axis=1), np.argmin(-expo, axis=1))

    def test_default_temperature_is_target_scott(self):
        rng = np.random.default_rng(1)
        target = rng.standard_normal((50, 4))
        prior = rng.standard_normal((20, 4))
        config = ScoringConfig(ScoreMethod.LSE)
        params = config.sidecar_params(target, prior)
        h = scott_bandwidth(4.0, 50, 4)
        assert params["temperature"] == h
        np.testing.assert_allclose(config.score(target, prior).values,
                                   naive_lse(target, prior, h), rtol=1e-12)
        payload = {"fingerprint_scheme": 2, "method": "lse", "temperature": h,
                   "target": params["target_source_id"],
                   "prior": params["prior_source_id"]}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert config.fingerprint(target, prior) == (
            hashlib.sha256(blob.encode()).hexdigest()[:16])

    @pytest.mark.parametrize("temperature", [0.05, 0.5, 3.0])
    def test_scale_c_reaches_any_temperature(self, temperature):
        # h = T at scale_c = T * M ** (1 / (d + 4)), up to rounding.
        rng = np.random.default_rng(2)
        target = rng.standard_normal((50, 4))
        prior = rng.standard_normal((20, 4))
        config = ScoringConfig(ScoreMethod.LSE, scale_c=temperature * 50 ** (1 / 8))
        h = config.sidecar_params(target, prior)["temperature"]
        np.testing.assert_allclose(h, temperature, rtol=1e-15)
        assert config == lse_config(temperature, target)
        np.testing.assert_allclose(config.score(target, prior).values,
                                   naive_lse(target, prior, temperature), rtol=1e-12)

    def test_nonpositive_temperature(self):
        with pytest.raises(ValidationError):
            lse_config(0.0, np.ones((1, 1)))

    def test_values_finite_at_tiny_temperature(self):
        rng = np.random.default_rng(6)
        target = rng.standard_normal((10, 2))
        got = lse_config(1e-4, target).score(target, rng.standard_normal((10, 2))).values
        assert np.isfinite(got).all()


class TestTargetDensity:
    def test_mode_of_single_kernel(self):
        from iwre.kde import GaussianKde

        kde = GaussianKde.from_parameters([[0.0]], 1.0, [[1.0]])
        got = kde.score_samples(np.array([[0.0]]))
        np.testing.assert_allclose(got, [np.log(1.0 / np.sqrt(2 * np.pi))], atol=1e-12)

    def test_matches_density_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((150, 4))
        kde = fit_kde(x, BandwidthSpec(2.0))
        q = rng.standard_normal((40, 4))
        got = ScoringConfig(ScoreMethod.KDE_TARGET, scale_c=2.0).score(x, q).values
        want = naive_log_density(kde, x, q)
        keep = np.abs(want) > 1e-3
        assert np.all(np.abs(got[keep] - want[keep]) <= 1e-10 * np.abs(want[keep]))

    def test_distant_point_scores_below_near_points(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((100, 2))
        kde = fit_kde(x, BandwidthSpec(1.0))
        h_sigma = kde.bandwidth_ * np.sqrt(np.diag(kde.covariance_)).max()
        near = x[:10] + 0.5 * h_sigma
        far = x.mean(axis=0) + np.array([10.0, 0.0]) * h_sigma * 10
        config = ScoringConfig(ScoreMethod.KDE_TARGET, scale_c=1.0)
        scores = config.score(x, np.vstack([near, far[None, :]])).values
        assert scores[-1] < scores[:-1].min()


class TestPriorBatches:
    def test_full_batch_reproduces_plain_fit(self):
        rng = np.random.default_rng(14)
        prior = EmbeddingDataset(rng.standard_normal((200, 3)))
        (batched,) = fit_prior_batched(
            prior, PriorBatchSpec(200, 1, rng_seed=5), BandwidthSpec(4.0)
        )
        plain = fit_kde(prior, BandwidthSpec(4.0))
        assert np.array_equal(batched.support_row_ids_, np.arange(200))
        assert np.array_equal(batched._support, plain._support)
        assert batched.bandwidth_ == plain.bandwidth_
        q = rng.standard_normal((20, 3))
        assert np.array_equal(batched.score_samples(q), plain.score_samples(q))

    def test_fitted_kdes_hold_only_their_whitened_support(self):
        # The criterion-12 prior shape: each KDE keeps its whitened support
        # and small per-fit arrays, no copy of the batch it was fitted on.
        prior = EmbeddingDataset(np.random.default_rng(3).standard_normal((16384, 32)))
        tracemalloc.start()
        try:
            kdes = fit_prior_batched(prior, PriorBatchSpec(4096, 8, rng_seed=0))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        support = sum(kde._support.nbytes for kde in kdes)
        assert retained <= 1.15 * support, retained / support

    def test_seed_determinism(self):
        rng = np.random.default_rng(0)
        prior = EmbeddingDataset(rng.standard_normal((100, 2)))
        spec = PriorBatchSpec(10, 4, rng_seed=9)
        a = fit_prior_batched(prior, spec)
        b = fit_prior_batched(prior, spec)
        for ka, kb in zip(a, b):
            assert np.array_equal(ka.support_row_ids_, kb.support_row_ids_)
        c = fit_prior_batched(prior, PriorBatchSpec(10, 4, rng_seed=10))
        assert any(
            not np.array_equal(ka.support_row_ids_, kc.support_row_ids_)
            for ka, kc in zip(a, c)
        )

    def test_batch_indices_sorted_and_unique(self):
        rng = np.random.default_rng(1)
        prior = EmbeddingDataset(rng.standard_normal((50, 2)))
        kdes = fit_prior_batched(prior, PriorBatchSpec(20, 3, rng_seed=2))
        for kde in kdes:
            ids = kde.support_row_ids_
            assert np.all(np.diff(ids) > 0)

    def test_batch_size_exceeds_prior(self):
        prior = EmbeddingDataset(np.zeros((5, 2)) + np.arange(5)[:, None])
        with pytest.raises(ValidationError) as exc:
            fit_prior_batched(prior, PriorBatchSpec(6, 1, rng_seed=0))
        assert exc.value.code == "bad_batch_spec"

    def test_many_batches_shape_and_invariants(self):
        rng = np.random.default_rng(77)
        prior = EmbeddingDataset(rng.standard_normal((10_000, 8)))
        kdes = fit_prior_batched(prior, PriorBatchSpec(2048, 8, rng_seed=3))
        assert len(kdes) == 8
        for kde in kdes:
            assert kde.count_ == 2048
            assert kde.bandwidth_ == scott_bandwidth(4.0, 2048, 8)
            scaled = kde.bandwidth_**2 * kde.covariance_
            recon = kde.chol_lower_ @ kde.chol_lower_.T
            assert np.linalg.norm(recon - scaled) <= 1e-10 * np.linalg.norm(scaled)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            PriorBatchSpec(1, 1, rng_seed=0)
        with pytest.raises(ValidationError):
            PriorBatchSpec(4, 0, rng_seed=0)
        with pytest.raises(ValidationError):
            PriorBatchSpec(4, 1, rng_seed=-1)
        target = EmbeddingDataset(np.zeros((3, 1)))
        for rows, batch_size in [(100, 100), (10_000, 4096)]:
            prior = EmbeddingDataset(np.zeros((rows, 1)))
            params = ScoringConfig(seed=1).sidecar_params(target, prior)
            assert params["batch_size"] == batch_size
            assert params["num_batches"] == 8

    @pytest.mark.parametrize("batch_size, num_batches, seed", [
        (1, 1, 0), (4, 0, 0), (4, 1, -1),
    ], ids=["batch_size", "num_batches", "seed"])
    def test_spec_ranges_are_the_configs(self, batch_size, num_batches, seed):
        # The iwr batch ranges are stated once: a spec is refused as the
        # config is, with its rng_seed reported as seed.
        with pytest.raises(ValidationError) as spec:
            PriorBatchSpec(batch_size, num_batches, rng_seed=seed)
        with pytest.raises(ValidationError) as config:
            ScoringConfig(batch_size=batch_size, num_batches=num_batches, seed=seed)
        assert spec.value.code == config.value.code == "bad_param"
        assert str(spec.value) == str(config.value)
        if seed < 0:
            assert str(spec.value) == "seed must be an integer >= 0, got -1"

    @pytest.mark.parametrize("rows, batch_size, named", [
        (1, None, "needs at least 2 rows, got 1"),
        (20, 50, "batch_size 50 exceeds prior rows 20"),
    ], ids=["one_row_prior", "batch_above_prior"])
    def test_iwr_prior_too_small_for_its_batches(self, rows, batch_size, named):
        # sidecar_params refuses, so score, fingerprint and check_fresh agree.
        rng = np.random.default_rng(0)
        target = EmbeddingDataset(rng.standard_normal((10, 2)))
        prior = EmbeddingDataset(rng.standard_normal((rows, 2)))
        config = ScoringConfig(seed=0, batch_size=batch_size)
        fresh = ScoringConfig(seed=0).score(target, rng.standard_normal((20, 2)))
        for call in (config.sidecar_params, config.fingerprint, config.score,
                     lambda t, p: config.check_fresh(fresh, t, p)):
            with pytest.raises(ValidationError) as exc:
                call(target, prior)
            assert exc.value.code == "bad_batch_spec"
            assert named in str(exc.value)


class TestImportanceWeight:
    def test_self_ratio_is_zero(self):
        rng = np.random.default_rng(21)
        data = EmbeddingDataset(rng.standard_normal((400, 5)))
        config = ScoringConfig(scale_c=4.0, batch_size=400, num_batches=1, seed=0)
        got = config.score(data, data).values
        assert np.abs(got).max() <= 1e-9

    def test_batched_consistency_single_full_batch(self):
        rng = np.random.default_rng(22)
        target = EmbeddingDataset(rng.standard_normal((100, 3)))
        prior = EmbeddingDataset(rng.standard_normal((250, 3)))
        config = ScoringConfig(scale_c=2.0, batch_size=250, num_batches=1, seed=1)
        got = config.score(target, prior).values
        # One batch spanning the prior is the plain fit of the prior.
        density = replace(config, method=ScoreMethod.KDE_TARGET)
        want = density.score(target, prior).values - density.score(prior, prior).values
        assert np.array_equal(got, want)

    def test_analytic_gaussian_ratio(self):
        rng = np.random.default_rng(30)
        target = EmbeddingDataset(rng.standard_normal((10_000, 1)))
        prior = EmbeddingDataset(2.0 * rng.standard_normal((10_000, 1)))
        tk = fit_kde(target, BandwidthSpec(1.0))
        prior_kdes = fit_prior_batched(
            prior, PriorBatchSpec(4096, 8, rng_seed=4), BandwidthSpec(1.0)
        )
        origin = np.array([[0.0]])
        at_origin = (tk.score_samples(origin) - log_mean_exp(
            [kde.score_samples(origin) for kde in prior_kdes]))[0]
        assert abs(np.exp(at_origin) - 2.0) <= 0.3

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(33)
        target = EmbeddingDataset(rng.standard_normal((60, 4)))
        prior_data = rng.standard_normal((300, 4))
        perm = rng.permutation(300)
        for method in (ScoreMethod.NN_L2, ScoreMethod.LSE, ScoreMethod.KDE_TARGET):
            config = ScoringConfig(method)
            base = config.score(target, prior_data).values
            permuted = config.score(target, prior_data[perm]).values
            assert np.array_equal(base[perm], permuted), method
        # iwr fits its batches on the prior it is given, so its fixed models
        # are scored on both row orders.
        tk = fit_kde(target)
        pk = fit_prior_batched(prior_data, PriorBatchSpec(300, 1, rng_seed=0))

        def iwr(rows):
            return tk.score_samples(rows) - log_mean_exp([k.score_samples(rows) for k in pk])

        assert np.array_equal(iwr(prior_data)[perm], iwr(prior_data[perm]))

    def test_empty_batch_list(self):
        # No configuration reaches scoring with no prior batch.
        with pytest.raises(ValidationError) as exc:
            ScoringConfig(seed=0, num_batches=0)
        assert exc.value.code == "bad_param" and "num_batches" in str(exc.value)

    def test_leave_self_out(self):
        rng = np.random.default_rng(41)
        data = EmbeddingDataset(rng.standard_normal((120, 3)))
        pk = fit_prior_batched(data, PriorBatchSpec(60, 3, rng_seed=7))
        config = ScoringConfig(batch_size=60, num_batches=3, seed=7)
        base = config.score(data, data).values
        loo = replace(config, leave_self_out=True).score(data, data).values
        assert np.isfinite(loo).all()
        # removing a row's own kernel can only lower its prior density
        member = np.zeros(120, dtype=bool)
        for kde in pk:
            member[kde.support_row_ids_] = True
        assert np.all(loo[member] > base[member])
        assert np.array_equal(loo[~member], base[~member])

    def test_leave_self_out_is_a_single_pass(self, monkeypatch):
        rng = np.random.default_rng(42)
        data = EmbeddingDataset(rng.standard_normal((120, 3)))
        tk = fit_kde(data)
        pk = fit_prior_batched(data, PriorBatchSpec(60, 3, rng_seed=7))
        evals = []
        engine = kde_module._kernel_exponents

        def counted(queries, *args, **kwargs):
            for rows, aug, tiles in engine(queries, *args, **kwargs):

                def counted_tiles(tiles=tiles, count=rows.stop - rows.start):
                    for expo in tiles():
                        evals.append(count * expo.shape[1])
                        yield expo

                yield rows, aug, counted_tiles

        monkeypatch.setattr(kde_module, "_kernel_exponents", counted)
        once = 120 * sum(k._support.shape[1] for k in [tk, *pk])  # padded
        config = ScoringConfig(batch_size=60, num_batches=3, seed=7)
        plain = config.score(data, data).values
        assert sum(evals) == once
        evals.clear()
        loo = replace(config, leave_self_out=True).score(data, data).values
        assert sum(evals) == once
        assert not np.array_equal(plain, loo)

    def test_threads_do_not_change_results(self):
        rng = np.random.default_rng(55)
        target = EmbeddingDataset(rng.standard_normal((50, 3)))
        prior = EmbeddingDataset(rng.standard_normal((9000, 3)))
        for leave_self_out in (False, True):
            config = ScoringConfig(batch_size=1000, num_batches=2, seed=1,
                                   leave_self_out=leave_self_out)
            assert_threads_do_not_change(config, target, prior)

    @pytest.mark.parametrize("leave_self_out", [False, True])
    def test_threads_do_not_change_whole_prior_batch_results(self, monkeypatch,
                                                             leave_self_out):
        # The one batch of the whole prior, fitted once, over 10 chunks.
        rng = np.random.default_rng(56)
        target = rng.standard_normal((40, 3))
        prior = EmbeddingDataset(rng.standard_normal((300, 3)))
        monkeypatch.setattr(scoring_module, "_OUTER_CHUNK_ROWS", 32)
        config = ScoringConfig(batch_size=300, num_batches=4, seed=2,
                               leave_self_out=leave_self_out)
        assert_threads_do_not_change(config, target, prior)

    @pytest.mark.parametrize("leave_self_out", [False, True])
    def test_threads_do_not_change_results_on_a_mapped_float32_prior(
        self, tmp_path, monkeypatch, leave_self_out
    ):
        # Five batches over 19 chunks, so batches overlap in the pool.
        rng = np.random.default_rng(57)
        target = rng.standard_normal((40, 3))
        prior = mapped_float32_prior(tmp_path / "prior.bin", rng.standard_normal((600, 3)))
        monkeypatch.setattr(scoring_module, "_OUTER_CHUNK_ROWS", 32)
        config = ScoringConfig(batch_size=200, num_batches=5, seed=3,
                               leave_self_out=leave_self_out)
        assert_threads_do_not_change(config, target, prior)



class TestOneRowJob:
    """kde_target and both iwr terms are one row job, so iwr is exactly the
    target term minus a prior term that never reads the target."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        num_batches=st.integers(1, 3),
        mapped_float32=st.booleans(),
        leave_self_out=st.booleans(),
        threads=st.sampled_from([1, 2]),
    )
    def test_iwr_is_target_term_minus_prior_term(
        self, seed, d, num_batches, mapped_float32, leave_self_out, threads
    ):
        # config.score gives the bits of the explicit recipe: the target
        # KDE's log-density less log_mean_exp of the batch KDEs'.
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((int(rng.integers(d + 1, 40)), d))
        rows = int(rng.integers(4, 200))
        data = rng.standard_normal((rows, d)) + 0.5
        batch_size = int(rng.integers(2, rows + 1))
        # Small row chunks, so both threads run and supports cross chunk edges.
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            scoring_module, "_OUTER_CHUNK_ROWS", 32
        ):
            if mapped_float32:
                path = Path(tmp) / "prior.bin"
                header = struct.pack("<4sHBQI", MAGIC, FORMAT_VERSION, 0, rows, d)
                path.write_bytes(header + data.astype("<f4").tobytes())
                prior = load_embeddings(path)
                assert prior.data.dtype == np.float32
            else:
                prior = EmbeddingDataset(data)
            target_term = fit_kde(target).score_samples(prior.data)
            prior_terms = []
            for kde in fit_prior_batched(
                prior, PriorBatchSpec(batch_size, num_batches, rng_seed=seed)
            ):
                exclude = np.full(rows, -1)
                if leave_self_out:
                    exclude[kde.support_row_ids_] = np.arange(kde.count_)
                prior_terms.append(kde.score_samples(prior.data, exclude=exclude))
            config = ScoringConfig(batch_size=batch_size, num_batches=num_batches,
                                   seed=seed, leave_self_out=leave_self_out)
            got = config.score(target, prior, threads=threads).values
            assert np.array_equal(got, target_term - log_mean_exp(prior_terms))
            density = ScoringConfig(ScoreMethod.KDE_TARGET)
            kde = density.score(target, prior, threads=threads).values
            assert np.array_equal(kde, target_term)
            del prior  # the mapped file closes before its directory goes

    @pytest.mark.parametrize("leave_self_out", [False, True])
    def test_whole_prior_batches_fit_and_score_once(self, monkeypatch, leave_self_out):
        # With N <= batch_size every batch is the whole prior, and the mean
        # of equal densities is that density: it is fitted once, and the
        # prior term is its log-density, one _log_density call per job.
        rng = np.random.default_rng(21)
        prior = EmbeddingDataset(rng.standard_normal((100, 3)))
        target = rng.standard_normal((30, 3))
        exclude = np.arange(100) if leave_self_out else np.full(100, -1)
        (whole,) = fit_prior_batched(prior, PriorBatchSpec(100, 8, rng_seed=4))
        want = (fit_kde(target).score_samples(prior.data)
                - whole.score_samples(prior.data, exclude=exclude))
        fits, scored = [], []
        fit, log_density = GaussianKde.fit, GaussianKde._log_density

        def fit_spy(self, *args):
            fits.append(self)
            return fit(self, *args)

        def log_density_spy(self, X, *args):
            scored.append(self)
            return log_density(self, X, *args)

        monkeypatch.setattr(GaussianKde, "fit", fit_spy)
        monkeypatch.setattr(GaussianKde, "_log_density", log_density_spy)
        monkeypatch.setattr(scoring_module, "_OUTER_CHUNK_ROWS", 32)  # 4 jobs
        config = ScoringConfig(batch_size=100, num_batches=8, seed=4,
                               leave_self_out=leave_self_out)
        got = config.score(target, prior).values
        assert len(fits) == 2  # the target and the one batch
        assert scored == [fits[0]] * 4 + [fits[1]] * 4
        assert np.array_equal(got, want)

    def test_job_scans_its_rows_at_most_once(self, monkeypatch):
        # A dataset's rows were checked when it was made; an iwr job scans
        # them for NaN and Inf at most once more, not once per KDE.
        rng = np.random.default_rng(22)
        prior = EmbeddingDataset(rng.standard_normal((200, 3)))
        target = rng.standard_normal((30, 3))
        base, row_bytes = prior.data.ctypes.data, prior.data.strides[0]
        scans = []
        scan = _validation.first_non_finite_row

        def scan_spy(arr):
            if np.shares_memory(arr, prior.data):
                scans.append((arr.ctypes.data - base) // row_bytes)
            return scan(arr)

        monkeypatch.setattr(_validation, "first_non_finite_row", scan_spy)
        monkeypatch.setattr(scoring_module, "_OUTER_CHUNK_ROWS", 64)  # 4 jobs
        ScoringConfig(batch_size=50, num_batches=4, seed=1).score(target, prior)
        assert all(scans.count(start) <= 1 for start in scans), scans

    def test_one_score_is_one_pool_run(self, monkeypatch):
        # The target term and all 8 batches run in one thread pool (there
        # was one pool per batch and one for the target term).
        made = []

        class Counted(scoring_module.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scoring_module, "ThreadPoolExecutor", Counted)
        rng = np.random.default_rng(23)
        prior = EmbeddingDataset(rng.standard_normal((400, 3)))
        ScoringConfig(batch_size=100, num_batches=8, seed=0).score(
            rng.standard_normal((30, 3)), prior, threads=2)
        assert len(made) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("error,status,code", [
        (NumericalError("synthetic failure", code="cholesky_exhausted"), 3,
         "cholesky_exhausted"),
        (MemoryError("synthetic failure"), 4, "out_of_memory"),
    ], ids=["cholesky_exhausted", "memory_error"])
    def test_a_failed_batch_fit_is_raised(self, tmp_path, monkeypatch, capsys,
                                          threads, error, status, code):
        # The second batch's fit raises while other batches' chunk tasks are
        # in the pool: score raises that error, and the CLI reports it, with
        # no task left waiting on a fold that will never come.
        rng = np.random.default_rng(24)
        prior = EmbeddingDataset(rng.standard_normal((300, 3)))
        target = EmbeddingDataset(rng.standard_normal((30, 3)))
        spec = PriorBatchSpec(100, 4, rng_seed=0)
        second = prior.data[fit_prior_batched(prior, spec)[1].support_row_ids_]
        fit = GaussianKde.fit

        def fit_spy(self, X, *args):
            if np.array_equal(X, second):
                raise error
            return fit(self, X, *args)

        monkeypatch.setattr(GaussianKde, "fit", fit_spy)
        monkeypatch.setattr(scoring_module, "_OUTER_CHUNK_ROWS", 32)  # 10 chunks
        save_embeddings(target, tmp_path / "t.bin")
        save_embeddings(prior, tmp_path / "p.bin")
        config = ScoringConfig(batch_size=100, num_batches=4, seed=0)
        argv = ["score", "--method", "iwr", "--batch-size", "100", "--num-batches", "4",
                "--seed", "0", "--threads", str(threads), "--target", str(tmp_path / "t.bin"),
                "--prior", str(tmp_path / "p.bin"), "--out", str(tmp_path / "out")]
        raised, status_of = [], []

        def calls():
            try:
                config.score(target, prior, threads=threads)
            except BaseException as exc:  # read below, on the test's thread
                raised.append(exc)
            status_of.append(cli.main(argv))

        alive = threading.active_count()
        caller = threading.Thread(target=calls)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "score hung after a failed fit"
        assert raised == [error] and raised[0] is error
        assert status_of == [status]
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error[{code}]: synthetic failure"], lines
        assert threading.active_count() == alive  # every worker has exited


class TestFingerprints:
    def build(self, **overrides):
        rng = np.random.default_rng(overrides.pop("data_seed", 0))
        target = EmbeddingDataset(rng.standard_normal((30, 2)))
        prior = EmbeddingDataset(rng.standard_normal((50, 2)))
        config = ScoringConfig(
            ScoreMethod.IWR,
            scale_c=overrides.pop("scale", 4.0),
            batch_size=overrides.pop("batch", 25),
            num_batches=2,
            seed=overrides.pop("seed", 0),
        )
        return config.fingerprint(target, prior)

    def test_any_config_change_changes_fingerprint(self):
        base = self.build()
        assert base == self.build()  # deterministic
        variants = {
            self.build(scale=2.0),
            self.build(seed=1),
            self.build(batch=20),
            self.build(data_seed=1),
        }
        assert base not in variants
        assert len(variants) == 4

    def test_method_changes_fingerprint(self):
        rng = np.random.default_rng(0)
        target = EmbeddingDataset(rng.standard_normal((10, 2)))
        prior = EmbeddingDataset(rng.standard_normal((20, 2)))
        fingerprints = {
            ScoringConfig(method, seed=0).fingerprint(target, prior)
            for method in ScoreMethod
        }
        assert len(fingerprints) == 4

    @pytest.mark.parametrize("method", list(ScoreMethod))
    def test_fingerprint_covers_exactly_the_fields_read(self, method):
        rng = np.random.default_rng(0)
        target = EmbeddingDataset(rng.standard_normal((10, 2)))
        prior = EmbeddingDataset(rng.standard_normal((20, 2)))
        base = ScoringConfig(method, batch_size=8, seed=0)
        changed = {
            "scale_c": 2.0,
            "batch_size": 9,
            "num_batches": 3,
            "seed": 1,
            "leave_self_out": True,
        }
        reads = {
            ScoreMethod.NN_L2: set(),
            ScoreMethod.LSE: {"scale_c"},  # through its temperature
            ScoreMethod.KDE_TARGET: {"scale_c"},
            ScoreMethod.IWR: {
                "scale_c", "batch_size", "num_batches", "seed", "leave_self_out"
            },
        }[method]
        fp = base.fingerprint(target, prior)
        for name, value in changed.items():
            other = replace(base, **{name: value}).fingerprint(target, prior)
            assert (other != fp) == (name in reads), name

    def test_fingerprint_fits_no_model(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fingerprint fitted a KDE")

        monkeypatch.setattr(GaussianKde, "fit", no_fit)
        rng = np.random.default_rng(0)
        target, prior = rng.standard_normal((10, 2)), rng.standard_normal((20, 2))
        for method in ScoreMethod:
            ScoringConfig(method, seed=0).fingerprint(target, prior)

    def test_score_stamps_fingerprint_and_source_ids(self):
        rng = np.random.default_rng(0)
        target = EmbeddingDataset(rng.standard_normal((10, 2)), source_id="t")
        prior = EmbeddingDataset(rng.standard_normal((20, 2)), source_id="p")
        for method in ScoreMethod:
            config = ScoringConfig(method, seed=0)
            scores = config.score(target, prior)
            assert scores.config_fingerprint == config.fingerprint(target, prior)
            assert (scores.target_source_id, scores.prior_source_id) == ("t", "p")

    @pytest.mark.parametrize("method", list(ScoreMethod))
    def test_score_makes_its_record_once(self, method):
        rng = np.random.default_rng(0)
        target = EmbeddingDataset(rng.standard_normal((10, 2)), source_id="t")
        prior = EmbeddingDataset(rng.standard_normal((20, 2)), source_id="p")
        config = ScoringConfig(method, seed=0, leave_self_out=True)
        real = ScoringConfig.sidecar_params
        with mock.patch.object(ScoringConfig, "sidecar_params", autospec=True,
                               side_effect=real) as made:
            scores = config.score(target, prior)
        assert made.call_count == 1
        assert scores.params == config.sidecar_params(target, prior)
        assert scores.params["method"] == method.value
        with pytest.raises(TypeError):
            scores.params["seed"] = 1  # the record is read-only

    def test_config_is_rebuilt_from_the_record(self):
        rng = np.random.default_rng(0)
        target, prior = rng.standard_normal((10, 2)), rng.standard_normal((20, 2))
        config = ScoringConfig(ScoreMethod.IWR, scale_c=2.0, seed=4,
                               leave_self_out=True)
        scores = config.score(target, prior)
        back = ScoringConfig.from_sidecar(scores)
        assert back == replace(config, batch_size=20)  # resolved from the prior
        back.check_fresh(scores, target, prior)
        with pytest.raises(ValidationError) as exc:
            replace(scores, params={**scores.params, "fingerprint_scheme": 1})
        assert exc.value.code == "malformed_value"
        assert "another fingerprint scheme" in str(exc.value)

    def test_stale_refusal_names_the_first_difference(self):
        rng = np.random.default_rng(0)
        target, prior = rng.standard_normal((10, 2)), rng.standard_normal((20, 2))
        config = ScoringConfig(ScoreMethod.IWR, seed=4)
        scores = config.score(target, prior)
        cases = [
            (replace(config, method=ScoreMethod.NN_L2), scores, "method is 'nn_l2'"),
            (replace(config, num_batches=3), scores, "num_batches is 3 here but 8"),
            # A record whose values equal the config's but are written
            # otherwise (4 for 4.0), so it hashes to another fingerprint.
            (config, replace(scores, params={**scores.params, "scale_c": 4}),
             f"config_fingerprint is '{scores.config_fingerprint}' here"),
        ]
        for other, given_scores, named in cases:
            with pytest.raises(ValidationError) as exc:
                other.check_fresh(given_scores, target, prior)
            assert exc.value.code == "fingerprint_mismatch"
            assert named in str(exc.value)

    def test_scale_c_is_the_one_bandwidth_field(self):
        assert [f.name for f in fields(ScoringConfig)] == [
            "method", "scale_c", "batch_size", "num_batches", "seed", "leave_self_out"
        ]
        with pytest.raises(TypeError):
            ScoringConfig(ScoreMethod.LSE, temperature=0.5)

    def test_bad_parameter_is_validation_error(self):
        with pytest.raises(ValidationError) as exc:
            ScoringConfig(ScoreMethod.IWR, batch_size=2.5)
        assert exc.value.code == "bad_param"

    @pytest.mark.parametrize("call", [
        lambda: BandwidthSpec("x"),
        lambda: BandwidthSpec(None),
        lambda: BandwidthSpec("4"),
        lambda: GaussianKde(scale_c=None).fit(np.eye(3)),
        lambda: ScoringConfig(ScoreMethod.LSE, scale_c="x"),
    ], ids=["spec-str", "spec-none", "spec-digits", "kde-none", "lse-str"])
    def test_non_number_is_bad_param(self, call):
        # As for a count: a value float() refuses, or would change, is no
        # positive number.
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.code == "bad_param"

    @pytest.mark.parametrize("field,value", [
        ("scale_c", -1.0), ("scale_c", 0.0), ("scale_c", float("inf")),
        ("batch_size", 1), ("num_batches", 0), ("seed", -1),
    ])
    def test_out_of_range_parameter_refused_for_every_method(self, field, value):
        # Checked when the config is built, also for a method that never
        # reads the field.
        with pytest.raises(ValidationError) as exc:
            ScoringConfig(ScoreMethod.NN_L2, **{field: value})
        assert exc.value.code == "bad_param"
        assert field in str(exc.value)


class TestScoreIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        sv = score_vector(rng.standard_normal(40))
        path = tmp_path / "scores.bin"
        save_scores(sv, path)
        back = load_scores(path)
        assert np.array_equal(back.values, sv.values)
        assert back.method is ScoreMethod.IWR
        assert back.config_fingerprint == sv.config_fingerprint
        assert (back.prior_source_id, back.target_source_id) == ("prior", "target")
        assert back.params == sv.params
        sidecar = json.loads((tmp_path / "scores.json").read_text())
        assert sorted(sidecar) == ["config_fingerprint", "engine_version", "params"]

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(list(ScoreMethod)),
        d=st.integers(1, 4),
        num_batches=st.integers(1, 3),
        leave_self_out=st.booleans(),
        default_batch=st.booleans(),
    )
    def test_scored_file_reads_back_fresh(self, seed, method, d, num_batches,
                                          leave_self_out, default_batch):
        # score -> save_scores -> load_scores -> from_sidecar -> check_fresh.
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((int(rng.integers(d + 2, 20)), d))
        rows = int(rng.integers(2, 40))
        prior = EmbeddingDataset(rng.standard_normal((rows, d)), source_id="prior")
        config = ScoringConfig(
            method, scale_c=float(rng.choice([0.5, 1.0, 4.0])),
            batch_size=None if default_batch else int(rng.integers(2, rows + 1)),
            num_batches=num_batches, seed=seed, leave_self_out=leave_self_out,
        )
        scores = config.score(target, prior)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.bin"
            save_scores(scores, path)
            back = load_scores(path)
        assert np.array_equal(back.values, scores.values)
        assert back.params == scores.params
        stored = ScoringConfig.from_sidecar(back)
        stored.check_fresh(back, target, prior)
        assert stored.fingerprint(target, prior) == scores.config_fingerprint

    @pytest.mark.parametrize("method", list(ScoreMethod))
    def test_an_edited_value_is_refused(self, tmp_path, method):
        # Each hashed params value and the stored fingerprint, edited alone;
        # scale_c as 4 for 4.0 is equal but hashed otherwise.
        rng = np.random.default_rng(1)
        target = EmbeddingDataset(rng.standard_normal((8, 2)), source_id="t")
        prior = EmbeddingDataset(rng.standard_normal((12, 2)), source_id="p")
        path = tmp_path / "scores.bin"
        save_scores(ScoringConfig(method, seed=3).score(target, prior), path)
        sidecar = json.loads(path.with_suffix(".json").read_text())
        other = next(m.value for m in ScoreMethod if m is not method)
        ids = {"method": other, "prior_source_id": "x", "target_source_id": "x"}
        hashed = {"scale_c": 4, "temperature": 0.25, "batch_size": 11,
                  "num_batches": 3, "seed": 4, "leave_self_out": True}
        edits = [("params", key, value) for key, value in ids.items()]
        edits += [("params", key, hashed[key])
                  for key in scoring_module._METHOD_FIELDS[method]]
        edits += [(None, "config_fingerprint", "0" * 16)]
        for section, key, value in edits:
            edited = json.loads(json.dumps(sidecar))
            (edited[section] if section else edited)[key] = value
            path.with_suffix(".json").write_text(json.dumps(edited))
            with pytest.raises(ValidationError) as exc:
                load_scores(path)
            assert exc.value.code == "bad_sidecar", (section, key)

    def test_missing_sidecar(self, tmp_path):
        rng = np.random.default_rng(3)
        sv = score_vector(rng.standard_normal(4), ScoreMethod.LSE)
        path = tmp_path / "scores.bin"
        save_scores(sv, path)
        (tmp_path / "scores.json").unlink()
        with pytest.raises(ValidationError) as exc:
            load_scores(path)
        assert exc.value.code == "missing_sidecar"

    def test_save_twice_is_byte_identical(self, tmp_path):
        sv = score_vector(np.array([1.5, -2.5]), ScoreMethod.KDE_TARGET)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_scores(sv, a)
        save_scores(sv, b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads for the test, then as before."""
    controls = _blas._controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        counts = [get() for get, _ in controls]
        if 1 in counts:
            pytest.skip("OpenBLAS cannot run more than one thread here")
        yield counts
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


class TestBlasPin:
    def data(self, rows=20000):
        rng = np.random.default_rng(8)
        return rng.standard_normal((30, 3)), rng.standard_normal((rows, 3))

    def test_one_thread_inside_scoring_jobs(self, two_blas_threads, monkeypatch):
        seen = []
        nearest = scoring_module.nearest_sq_dists

        def spy(*args):
            seen.append(_blas.thread_counts())
            return nearest(*args)

        monkeypatch.setattr(scoring_module, "nearest_sq_dists", spy)
        NN.score(*self.data(), threads=2)  # three chunks on two workers
        assert len(seen) == 3
        assert all(counts == [1] * len(two_blas_threads) for counts in seen)

    def test_config_fits_pinned_then_restored(self, two_blas_threads, monkeypatch):
        seen = []
        fit = GaussianKde.fit

        def spy(self, *args):
            seen.append(_blas.thread_counts())
            return fit(self, *args)

        monkeypatch.setattr(GaussianKde, "fit", spy)
        ScoringConfig(ScoreMethod.IWR, seed=0).score(*self.data(3000))
        # The target, and one batch: each of the 8 is the whole 3,000-row prior.
        assert seen == [[1] * len(two_blas_threads)] * 2
        assert _blas.thread_counts() == two_blas_threads  # restored on return

    @pytest.mark.parametrize("fit", [
        fit_kde,
        lambda x: GaussianKde().fit(x),
        lambda x: GaussianKde.from_parameters(x, 0.5, np.eye(3)),
        lambda x: fit_prior_batched(x, PriorBatchSpec(100, 2, rng_seed=0)),
    ], ids=["fit_kde", "fit", "from_parameters", "fit_prior_batched"])
    def test_explicit_fits_pinned_then_restored(self, two_blas_threads,
                                                monkeypatch, fit):
        # Called outside any scoring pin, as perfbench's set-up probe calls them.
        seen = []
        augmented = kde_module._augmented_support

        def spy(*args):
            seen.append(_blas.thread_counts())
            return augmented(*args)

        monkeypatch.setattr(kde_module, "_augmented_support", spy)
        fit(self.data(300)[1])
        assert seen and all(counts == [1] * len(two_blas_threads) for counts in seen)
        assert _blas.thread_counts() == two_blas_threads

    def test_restored_after_job_raises(self, two_blas_threads, monkeypatch):
        def boom(*args):
            raise NumericalError("synthetic failure", code="synthetic")

        monkeypatch.setattr(scoring_module, "nearest_sq_dists", boom)
        with pytest.raises(NumericalError):
            ScoringConfig(ScoreMethod.NN_L2).score(*self.data())
        assert _blas.thread_counts() == two_blas_threads

    def test_no_openblas_found_is_a_no_op(self, two_blas_threads, monkeypatch):
        controls = _blas._controls()
        monkeypatch.setattr(_blas, "_loaded_openblas", lambda: [])
        with _blas.single_threaded_blas():
            assert _blas.thread_counts() == []
            assert [get() for get, _ in controls] == two_blas_threads

    def test_nested_and_concurrent_pins_restore_once(self, monkeypatch):
        state = {"count": 3}

        # Slow accessors widen the windows in which a missing lock loses a save.
        def get():
            time.sleep(1e-3)
            return state["count"]

        def set_(n):
            time.sleep(1e-3)
            state["count"] = n

        monkeypatch.setattr(_blas, "_controls", lambda: [(get, set_)])
        wrong = []
        workers, rounds = 8, 400
        # The first rounds start together with no pin held, so every worker
        # races to save; the rest run free, so entries overlap exits.
        start = threading.Barrier(workers, timeout=30)

        def worker():
            for i in range(rounds):
                if i < rounds // 4:
                    start.wait()
                with _blas.single_threaded_blas():
                    with _blas.single_threaded_blas():
                        if state["count"] != 1:
                            wrong.append(state["count"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert state["count"] == 3

    def test_scores_do_not_depend_on_openblas_threads(self, tmp_path):
        rng = np.random.default_rng(4)
        save_embeddings(
            EmbeddingDataset(rng.standard_normal((200, 32))), tmp_path / "t.bin"
        )
        save_embeddings(
            EmbeddingDataset(rng.standard_normal((3000, 32))), tmp_path / "p.bin"
        )
        src = str(Path(scoring_module.__file__).resolve().parents[1])
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        env["PYTHONPATH"] = src
        outputs = []
        for blas_threads in (None, "1", "2"):
            run_env = dict(env)
            if blas_threads is not None:
                run_env["OPENBLAS_NUM_THREADS"] = blas_threads
            out = tmp_path / f"blas_{blas_threads}"
            subprocess.run(
                [sys.executable, "-m", "iwre.cli", "score", "--method", "iwr",
                 "--seed", "1", "--batch-size", "1024", "--num-batches", "2",
                 "--target", tmp_path / "t.bin", "--prior", tmp_path / "p.bin",
                 "--out", out],
                env=run_env, check=True, capture_output=True, timeout=300,
            )
            outputs.append((out / "scores.bin").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
