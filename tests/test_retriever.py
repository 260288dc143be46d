"""The sklearn-style retriever facade."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

from helpers import brute_force_min_sq_dists, naive_lse
from iwre.dataset import EmbeddingDataset
from iwre.errors import ValidationError
from iwre.kde import BandwidthSpec, fit_kde, log_mean_exp, scott_bandwidth
from iwre.retriever import EmbeddingRetriever
from iwre.retrieval import select_by_fraction
from iwre.scoring import (
    PriorBatchSpec,
    ScoreMethod,
    ScoringConfig,
    fit_prior_batched,
)


@pytest.fixture
def data():
    rng = np.random.default_rng(100)
    return rng.standard_normal((40, 3)), rng.standard_normal((200, 3))


class TestEstimatorProtocol:
    def test_get_params_round_trip(self):
        r = EmbeddingRetriever(method="nn_l2", fraction=0.2, seed=7)
        params = r.get_params()
        assert params["method"] == "nn_l2"
        assert params["fraction"] == 0.2
        assert params["seed"] == 7
        r.set_params(fraction=0.5)
        assert r.fraction == 0.5

    def test_takes_no_temperature(self):
        # lse's temperature comes from scale_c.
        assert "temperature" not in EmbeddingRetriever().get_params()
        with pytest.raises(TypeError):
            EmbeddingRetriever(method="lse", temperature=0.7)

    def test_sklearn_clone(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        r = EmbeddingRetriever(method="lse", scale_c=0.5)
        clone = sklearn_base.clone(r)
        assert clone.get_params() == r.get_params()

    def test_unfitted_raises(self, data):
        _, prior = data
        with pytest.raises(ValidationError) as exc:
            EmbeddingRetriever().score_samples(prior)
        assert exc.value.code == "not_fitted"

    def test_unknown_method(self, data):
        target, prior = data
        with pytest.raises(ValueError):
            EmbeddingRetriever(method="cosine").fit(target)

    @pytest.mark.parametrize("threads", ["4", 0, -3, 2.5])
    def test_bad_threads_rejected_at_fit(self, data, threads):
        target, _ = data
        with pytest.raises(ValidationError) as exc:
            EmbeddingRetriever(threads=threads).fit(target)
        assert exc.value.code == "bad_param"

    @pytest.mark.parametrize("param,value", [
        ("seed", -1), ("scale_c", -1.0), ("num_batches", 0), ("batch_size", 1),
    ])
    def test_bad_scoring_param_rejected_at_fit(self, data, param, value):
        target, _ = data
        with pytest.raises(ValidationError) as exc:
            EmbeddingRetriever(method="nn_l2", **{param: value}).fit(target)
        assert exc.value.code == "bad_param"

    @pytest.mark.parametrize("name", [f.name for f in fields(ScoringConfig)])
    def test_defaults_are_scoring_config_defaults(self, name):
        # One source per default: ScoringConfig's, except seed, which is 0
        # so that iwr runs without one.
        default = inspect.signature(EmbeddingRetriever).parameters[name].default
        assert default == (0 if name == "seed" else getattr(ScoringConfig(), name))


class TestAgainstFunctionalApi:
    """The retriever's scores against explicit models and oracles."""

    def test_nn_matches(self, data):
        target, prior = data
        got = EmbeddingRetriever(method="nn_l2").fit(target).score_samples(prior)
        want = -brute_force_min_sq_dists(prior, target)
        assert np.array_equal(got, want)

    def test_lse_matches(self, data):
        # lse's temperature is the target's Scott bandwidth at scale_c.
        target, prior = data
        got = (
            EmbeddingRetriever(method="lse", scale_c=0.7)
            .fit(target)
            .score_samples(prior)
        )
        want = ScoringConfig(ScoreMethod.LSE, scale_c=0.7).score(target, prior).values
        assert np.array_equal(got, want)
        oracle = naive_lse(target, prior, scott_bandwidth(0.7, 40, 3))
        np.testing.assert_allclose(got, oracle, rtol=1e-12)

    def test_kde_target_matches(self, data):
        target, prior = data
        got = (
            EmbeddingRetriever(method="kde_target", scale_c=2.0)
            .fit(target)
            .score_samples(prior)
        )
        want = fit_kde(target, BandwidthSpec(2.0)).score_samples(prior)
        assert np.array_equal(got, want)

    def test_iwr_matches(self, data):
        target, prior = data
        got = (
            EmbeddingRetriever(
                method="iwr", scale_c=2.0, batch_size=100, num_batches=3, seed=5
            )
            .fit(target)
            .score_samples(prior)
        )
        tk = fit_kde(target, BandwidthSpec(2.0))
        pk = fit_prior_batched(
            EmbeddingDataset(prior),
            PriorBatchSpec(100, 3, rng_seed=5),
            BandwidthSpec(2.0),
        )
        want = tk.score_samples(prior) - log_mean_exp(
            [kde.score_samples(prior) for kde in pk])
        assert np.array_equal(got, want)


class TestTransform:
    def test_selects_top_fraction(self, data):
        target, prior = data
        r = EmbeddingRetriever(method="nn_l2", fraction=0.1).fit(target)
        out = r.transform(prior)
        assert out.shape == (20, 3)
        want = select_by_fraction(
            ScoringConfig(ScoreMethod.NN_L2).score(target, prior), 0.1)
        assert np.array_equal(r.manifest_.selected_indices, want.selected_indices)
        np.testing.assert_array_equal(out, prior[want.selected_indices])

    def test_accepts_embedding_dataset(self, data):
        target, prior = data
        r = EmbeddingRetriever(method="kde_target", fraction=0.25)
        out = r.fit(EmbeddingDataset(target)).transform(EmbeddingDataset(prior))
        assert out.shape == (50, 3)
