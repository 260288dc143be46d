"""Synthetic scenarios: oracles, the rank-reversal fixture, and grading."""

import dataclasses

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from helpers import metadata_table, score_vector
from iwre.dataset import EmbeddingDataset
from iwre.errors import ValidationError
from iwre.retrieval import select_by_fraction
from iwre.scoring import ScoreMethod, ScoringConfig
from iwre.synthbench import (
    SCENARIO_IDS,
    GaussianMixture,
    OracleDensities,
    evaluate_retrieval,
    fig2_probe_indices,
    generate,
    load_oracle,
    make_scenario,
    oracle_weight_check,
    row_relevance,
    save_oracle,
)


def mixture_grid_integral(mixture, padding=10.0):
    """Trapezoid integral of the mixture pdf over a generous box."""
    sds = np.sqrt(
        np.array([np.diag(c) for c in mixture.covariances], dtype=float)
    )
    lo = (mixture.means - padding * sds).min(axis=0)
    hi = (mixture.means + padding * sds).max(axis=0)
    step = sds.min() / 3.0
    axes = [np.arange(lo[k], hi[k] + step, step) for k in range(mixture.dim)]
    if mixture.dim == 1:
        pdf = np.exp(mixture.log_pdf(axes[0][:, None]))
        return np.trapezoid(pdf, axes[0])
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    pdf = np.exp(mixture.log_pdf(pts)).reshape(xx.shape)
    return np.trapezoid(np.trapezoid(pdf, axes[1], axis=1), axes[0])


class TestGaussianMixture:
    def test_weight_sum_validated(self):
        with pytest.raises(ValidationError) as exc:
            GaussianMixture(
                np.array([0.5, 0.4]), np.zeros((2, 1)), np.ones((2, 1, 1))
            )
        assert exc.value.code == "bad_mixture"

    @pytest.mark.parametrize("weights, covariances", [
        ([1.5, -0.5], np.ones((2, 1, 1))),
        ([0.5, 0.5], np.ones((2, 2, 2))),
    ], ids=["negative_weight", "covariance_shape"])
    def test_rejects_bad_components(self, weights, covariances):
        with pytest.raises(ValidationError) as exc:
            GaussianMixture(np.array(weights), np.zeros((2, 1)), covariances)
        assert exc.value.code == "bad_mixture"

    @pytest.mark.parametrize("field", ["prior_component_names",
                                       "prior_component_relevance"])
    def test_scenario_components_match_prior(self, field):
        scenario = make_scenario("cluster_bias")
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(scenario, **{field: getattr(scenario, field)[:-1]})
        assert exc.value.code == "bad_mixture"

    def test_scenario_dim_is_its_mixtures(self):
        scenario = make_scenario("cluster_bias")
        assert scenario.dim == scenario.prior_mixture.dim == 2
        one_d = make_scenario("gaussian_ratio").target_mixture
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(scenario, target_mixture=one_d)
        assert exc.value.code == "bad_mixture"

    @pytest.mark.parametrize("weights, covariances, code", [
        (["a"], [[[1.0]]], "malformed_value"),
        ([1.0], [[["1"]]], "malformed_value"),
        ([True], [[[1.0]]], "malformed_value"),
        ([np.nan], [[[1.0]]], "bad_mixture"),
        ([1.0], [[[np.nan]]], "bad_mixture"),
    ], ids=["string_weight", "string_covariance", "bool_weight", "nan_weight",
            "nan_covariance"])
    def test_rejects_non_numbers(self, weights, covariances, code):
        with pytest.raises(ValidationError) as exc:
            GaussianMixture(weights, [[0.0]], covariances)
        assert exc.value.code == code

    def test_covariance_must_be_pd(self):
        with pytest.raises(ValidationError):
            GaussianMixture(
                np.array([1.0]), np.zeros((1, 1)), np.array([[[-1.0]]])
            )

    def test_log_pdf_matches_scalar_gaussian(self):
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        got = mix.log_pdf(np.array([[0.0], [1.0]]))
        want = -0.5 * np.log(2 * np.pi) - np.array([0.0, 0.5])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
    def test_log_pdf_matches_scipy_reference(self, scenario_id):
        scenario = make_scenario(scenario_id)
        rng = np.random.default_rng(8)
        for mixture in (scenario.target_mixture, scenario.prior_mixture):
            x, _ = mixture.sample(rng, 200)
            x = np.vstack([x, mixture.means + 6.0])  # far tails too
            want = logsumexp(
                [
                    np.log(w) + multivariate_normal(mean=m, cov=c).logpdf(x)
                    for w, m, c in zip(
                        mixture.weights, mixture.means, mixture.covariances
                    )
                ],
                axis=0,
            )
            got = mixture.log_pdf(x)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            one = mixture.log_pdf(x[0])  # a 1-D query is one point
            assert one.shape == (1,)
            np.testing.assert_allclose(one, want[:1], rtol=1e-12, atol=1e-12)

    def test_sampling_component_proportions(self):
        mix = GaussianMixture(
            np.array([0.25, 0.75]),
            np.array([[0.0], [100.0]]),
            np.ones((2, 1, 1)),
        )
        rng = np.random.default_rng(0)
        _, comps = mix.sample(rng, 20_000)
        assert abs((comps == 1).mean() - 0.75) < 0.02


class TestOracles:
    @pytest.mark.parametrize("scenario_id", ["gaussian_ratio", "cluster_bias", "fig2_toy"])
    def test_mixture_normalization(self, scenario_id):
        scenario = make_scenario(scenario_id)
        for mixture in (scenario.target_mixture, scenario.prior_mixture):
            assert abs(mixture_grid_integral(mixture) - 1.0) <= 1e-4

    def test_gaussian_ratio_is_two_at_origin(self):
        oracle = generate(make_scenario("gaussian_ratio"), 10, 10).oracle
        ratio = np.exp(oracle.log_ratio(np.array([[0.0]])))[0]
        assert ratio == pytest.approx(2.0, abs=1e-12)

    def test_log_ratio_consistency(self):
        oracle = generate(make_scenario("cluster_bias"), 10, 10).oracle
        q = np.array([[0.0, 0.0], [1.6, 0.0], [3.0, -1.0]])
        np.testing.assert_allclose(
            oracle.log_ratio(q), oracle.log_target(q) - oracle.log_prior(q), rtol=1e-12
        )


class TestGenerate:
    def test_reproducible_from_seed(self):
        a = generate(make_scenario("cluster_bias", rng_seed=4), 50, 120)
        b = generate(make_scenario("cluster_bias", rng_seed=4), 50, 120)
        assert np.array_equal(a.target.data, b.target.data)
        assert np.array_equal(a.prior.data, b.prior.data)
        assert a.prior_metadata == b.prior_metadata
        c = generate(make_scenario("cluster_bias", rng_seed=5), 50, 120)
        assert not np.array_equal(a.prior.data, c.prior.data)

    def test_shapes_and_metadata(self):
        data = generate(make_scenario("cluster_bias"), 40, 130)
        assert data.target.rows == 40 and data.prior.rows == 130
        assert len(data.prior_metadata) == 130
        meta = data.prior_metadata
        assert (meta.task_code >= 0).all()
        assert set(meta.task_labels) <= {"core_task", "fringe_distractor"}
        assert set(data.task_relevance) == {"core_task", "fringe_distractor"}

    def test_counts_validated(self):
        with pytest.raises(ValidationError):
            generate(make_scenario("gaussian_ratio"), 0, 10)

    def test_unknown_scenario(self):
        with pytest.raises(ValidationError) as exc:
            make_scenario("mystery")
        assert exc.value.code == "unknown_scenario"

    def test_negative_seed(self):
        with pytest.raises(ValidationError) as exc:
            make_scenario("cluster_bias", rng_seed=-1)
        assert exc.value.code == "bad_param"


class TestOracleFile:
    def test_round_trip(self, tmp_path):
        scenario = make_scenario("cluster_bias", rng_seed=2)
        data = generate(scenario, 20, 40)
        save_oracle(scenario, data, tmp_path / "oracle.json")
        oracle = load_oracle(tmp_path / "oracle.json")
        q = data.prior.data
        assert np.array_equal(oracle.log_ratio(q), data.oracle.log_ratio(q))

    @pytest.mark.parametrize("text,code", [
        ("{bad", "bad_oracle"),
        ("[1, 2]", "bad_oracle"),
        ('{"target_mixture": {}}', "bad_oracle"),
        ('{"target_mixture": [], "prior_mixture": []}', "bad_oracle"),
        ('{"target_mixture": {"weights": [1]}, "prior_mixture": {}}', "bad_oracle"),
        ('{"target_mixture": {"weights": [1], "means": [[0], [0, 1]], '
         '"covariances": [[[1]]]}, "prior_mixture": {}}', "bad_oracle"),
        ('{"target_mixture": {"weights": [1], "means": [[0]], '
         '"covariances": [[[-1]]]}, "prior_mixture": {}}', "bad_mixture"),
        # Numbers are JSON numbers: a string is not parsed.
        ('{"target_mixture": {"weights": ["1"], "means": [[0]], '
         '"covariances": [[["1"]]]}, "prior_mixture": {"weights": [1], '
         '"means": [[0]], "covariances": [[[4]]]}}', "bad_oracle"),
    ], ids=["invalid_json", "not_object", "missing_section", "section_not_object",
            "missing_key", "ragged_means", "covariance_not_pd", "string_numbers"])
    def test_malformed_file(self, tmp_path, text, code):
        path = tmp_path / "oracle.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            load_oracle(path)
        assert exc.value.code == code


class TestFig2Fixture:
    def test_rank_reversal(self):
        data = generate(make_scenario("fig2_toy"))
        cluster, isolated = fig2_probe_indices()
        nn, dens, iwr = (
            ScoringConfig(method, scale_c=4.0, batch_size=2, num_batches=1, seed=0)
            .score(data.target, data.prior).values
            for method in (ScoreMethod.NN_L2, ScoreMethod.KDE_TARGET, ScoreMethod.IWR)
        )
        assert nn[isolated] > nn[cluster]
        assert dens[cluster] > dens[isolated]
        assert iwr[cluster] > iwr[isolated]
        # the qualitative claim as a sign assertion
        assert np.sign(nn[cluster] - nn[isolated]) != np.sign(
            dens[cluster] - dens[isolated]
        )

    def test_fixture_is_frozen(self):
        a = generate(make_scenario("fig2_toy"))
        b = generate(make_scenario("fig2_toy", rng_seed=99))
        assert np.array_equal(a.target.data, b.target.data)
        assert np.array_equal(a.prior.data, b.prior.data)

    def test_geometry_matches_description(self):
        data = generate(make_scenario("fig2_toy"))
        cluster, isolated = fig2_probe_indices()
        probe = data.prior.data[cluster]
        arc = data.target.data[:-1]
        outlier = data.target.data[-1]
        arc_dists = np.linalg.norm(arc - probe, axis=1)
        assert len(arc) >= 8
        np.testing.assert_allclose(arc_dists, arc_dists[0], rtol=1e-9)
        iso_dist = np.linalg.norm(data.prior.data[isolated] - outlier)
        assert iso_dist < arc_dists[0]

    def test_counts_are_pinned(self):
        scenario = make_scenario("fig2_toy")
        with pytest.raises(ValidationError) as exc:
            generate(scenario, 30, 2)
        assert exc.value.code == "bad_counts"
        with pytest.raises(ValidationError):
            generate(scenario, None, 50)

    def test_relevance_labels(self):
        data = generate(make_scenario("fig2_toy"))
        assert data.task_relevance == {
            "near_cluster": "relevant",
            "near_outlier": "harmful",
        }


class TestEvaluateRetrieval:
    def manifest(self, indices, n=10):
        values = np.full(n, -1.0)
        values[list(indices)] = 1.0
        return select_by_fraction(score_vector(values), len(indices) / n)

    def test_perfect_selection(self):
        relevance = np.arange(10) < 3
        quality = evaluate_retrieval(self.manifest([0, 1, 2]), relevance)
        assert quality.precision == 1.0 and quality.recall == 1.0

    def test_select_all_gives_base_rate_precision(self):
        relevance = np.arange(10) < 3
        quality = evaluate_retrieval(self.manifest(range(10)), relevance)
        assert quality.recall == 1.0
        assert quality.precision == pytest.approx(0.3)

    def test_no_relevant_row_gives_no_recall(self):
        # None, not NaN, which strict JSON cannot hold.
        quality = evaluate_retrieval(self.manifest([0, 1]), np.zeros(10, bool))
        assert quality.precision == 0.0 and quality.recall is None
        assert quality.relevant_count == 0

    def test_label_mismatch(self):
        with pytest.raises(ValidationError) as exc:
            evaluate_retrieval(self.manifest([8, 9]), np.ones(5, bool))
        assert exc.value.code == "label_mismatch"

    def test_relevance_is_a_mask(self):
        with pytest.raises(ValidationError) as exc:
            evaluate_retrieval(self.manifest([0]), ["relevant"] * 10)
        assert exc.value.code == "bad_labels"

    def test_row_relevance_expansion(self):
        data = generate(make_scenario("cluster_bias"), 10, 60)
        relevance = row_relevance(data.prior_metadata, data.task_relevance)
        assert relevance.dtype == bool and len(relevance) == 60
        meta = data.prior_metadata
        for code, rel in zip(meta.task_code, relevance):
            assert rel == (data.task_relevance[meta.task_labels[code]] == "relevant")

    def test_row_relevance_defaults_to_harmful(self):
        meta = metadata_table([
            (0, 0, 3, "core_task"),
            (0, 1, 3, "unknown_task"),
            (0, 2, 3, None),
        ])
        labels = {"core_task": "relevant"}
        assert row_relevance(meta, labels).tolist() == [True, False, False]


class TestClusterBias:
    def test_importance_weights_beat_nearest_neighbor(self):
        data = generate(make_scenario("cluster_bias", rng_seed=0))
        relevance = row_relevance(data.prior_metadata, data.task_relevance)
        nn_scores = ScoringConfig(ScoreMethod.NN_L2).score(data.target, data.prior)
        nn = select_by_fraction(nn_scores, 0.1)
        config = ScoringConfig(scale_c=1.0, batch_size=1024, num_batches=4, seed=0)
        iw = select_by_fraction(config.score(data.target, data.prior), 0.1)
        p_nn = evaluate_retrieval(nn, relevance).precision
        p_iw = evaluate_retrieval(iw, relevance).precision
        assert p_iw > p_nn

    def test_majority_relevant_for_strong_retriever(self):
        """A good scorer pulls most of its selection from relevant tasks."""
        from iwre.analysis import build_report

        data = generate(make_scenario("cluster_bias", rng_seed=1))
        config = ScoringConfig(scale_c=1.0, batch_size=1024, num_batches=4, seed=1)
        manifest = select_by_fraction(config.score(data.target, data.prior), 0.1)
        tasks = build_report(
            manifest, data.prior_metadata, labels=data.task_relevance
        )["tasks"]
        relevant_fraction = sum(
            frac
            for task, frac in tasks["fractions"].items()
            if tasks["relevance"][task] in ("relevant", "mixed")
        )
        assert relevant_fraction > 0.5


class TestOracleWeightCheck:
    def run_iwr(self, data, scale, seed, batch=4096, k=8):
        config = ScoringConfig(scale_c=scale, batch_size=min(batch, data.prior.rows),
                               num_batches=k, seed=seed)
        return config.score(data.target, data.prior)

    def test_method_mismatch(self):
        data = generate(make_scenario("gaussian_ratio"), 10, 10)
        scores = ScoringConfig(ScoreMethod.NN_L2).score(data.target, data.prior)
        with pytest.raises(ValidationError) as exc:
            oracle_weight_check(data.oracle, scores, data.prior)
        assert exc.value.code == "method_mismatch"

    def test_length_mismatch(self):
        data = generate(make_scenario("gaussian_ratio"), 10, 10)
        scores = score_vector(np.zeros(9))
        with pytest.raises(ValidationError) as exc:
            oracle_weight_check(data.oracle, scores, data.prior)
        assert exc.value.code == "label_mismatch"

    def test_identical_mixtures_near_zero(self):
        mix = make_scenario("gaussian_ratio").target_mixture
        oracle = OracleDensities(mix, mix)
        rng = np.random.default_rng(1)
        target = EmbeddingDataset(mix.sample(rng, 10_000)[0])
        prior = EmbeddingDataset(mix.sample(rng, 10_000)[0])
        config = ScoringConfig(scale_c=1.0, batch_size=4096, num_batches=8, seed=1)
        scores = config.score(target, prior)
        check = oracle_weight_check(oracle, scores, prior)
        assert check.mean_abs_error <= 0.1

    def test_error_shrinks_with_sample_size(self):
        """Mean log-ratio error at n=100 exceeds the n=10000 error for
        a majority of 20 seeds."""
        larger = 0
        for seed in range(20):
            errors = {}
            for n in (100, 10_000):
                data = generate(make_scenario("gaussian_ratio", rng_seed=seed), n, n)
                scores = self.run_iwr(data, scale=1.0, seed=seed, batch=2048, k=4)
                errors[n] = oracle_weight_check(
                    data.oracle, scores, data.prior
                ).mean_abs_error
            larger += errors[100] > errors[10_000]
        assert larger > 10
