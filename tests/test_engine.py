"""Property tests of the kernel engine behind all four scoring rules."""

import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_force_min_sq_dists, naive_log_density, ranking
from iwre import kde as kde_module
from iwre.errors import ValidationError
from iwre.kde import BandwidthSpec, GaussianKde, fit_kde
from iwre.scoring import (
    PriorBatchSpec,
    fit_prior_batched,
    score_importance_weight,
    score_kde_target,
    score_lse,
    score_nn_l2,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def grid_problem(draw):
    """Target and prior rows on a quarter grid, so distances tie exactly.

    Targets are duplicated, prior rows may copy a target or sit a hair off
    a grid point (near-ties), and everything shares a common offset.
    """
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    target = rng.integers(-6, 7, (m, d)) / 4.0
    target = np.vstack([target, target[rng.integers(0, m, draw(st.integers(0, 4)))]])
    prior = rng.integers(-6, 7, (n, d)) / 4.0
    copies = rng.random(n) < 0.3
    prior[copies] = target[rng.integers(0, len(target), copies.sum())]
    nudged = rng.random(n) < 0.3
    prior[nudged] += rng.choice([-1.0, 1.0], (nudged.sum(), d)) * 2.0**-40
    offset = draw(st.sampled_from([0.0, 1024.0, -3.0e6, 2.0**40]))
    return target + offset, prior + offset


@st.composite
def far_tie_problem(draw):
    """Prior rows far out on the bisector of two targets, nudged off it by
    far less than the GEMM rounding of their exponents."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = rng.standard_normal((draw(st.integers(2, 12)), d))
    i, j = rng.integers(0, len(target), (2, 30))
    gap = target[i] - target[j]
    away = rng.standard_normal((30, d))
    away -= (away * gap).sum(1, keepdims=True) / np.maximum(
        (gap * gap).sum(1, keepdims=True), 1e-300
    ) * gap
    away /= np.linalg.norm(away, axis=1, keepdims=True)
    far = draw(st.sampled_from([1e4, 1e6, 1e8]))
    nudge = 1e-9 * rng.standard_normal((30, 1)) * gap
    return target, (target[i] + target[j]) / 2 + far * away + nudge


@st.composite
def kde_problem(draw):
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.standard_normal((draw(st.integers(2, 120)), d))
    queries = 1.5 * rng.standard_normal((draw(st.integers(1, 80)), d))
    scale = draw(st.sampled_from([0.5, 1.0, 4.0]))
    return fit_kde(support, BandwidthSpec(scale)), queries, rng


class TestNearestNeighbor:
    @PROPERTY
    @given(grid_problem())
    def test_equals_brute_force(self, problem):
        target, prior = problem
        got = score_nn_l2(target, prior).values
        assert np.array_equal(got, -brute_force_min_sq_dists(prior, target))

    @PROPERTY
    @given(far_tie_problem())
    def test_equals_brute_force_at_far_near_ties(self, problem):
        target, prior = problem
        got = score_nn_l2(target, prior).values
        assert np.array_equal(got, -brute_force_min_sq_dists(prior, target))

    @PROPERTY
    @given(grid_problem(), st.integers(0, 2**32 - 1))
    def test_translation_and_permutation_invariance(self, problem, seed):
        target, prior = problem
        rng = np.random.default_rng(seed)
        base = score_nn_l2(target, prior).values
        shift = rng.integers(-64, 65, target.shape[1]).astype(float)  # exact
        assert np.array_equal(score_nn_l2(target + shift, prior + shift).values, base)
        rows = rng.permutation(len(prior))
        shuffled = score_nn_l2(target[rng.permutation(len(target))], prior[rows])
        assert np.array_equal(shuffled.values, base[rows])


class TestScoreSamples:
    @PROPERTY
    @given(kde_problem(), st.integers(1, 90))
    def test_chunk_split_and_permutation(self, problem, chunk_rows):
        kde, queries, rng = problem
        whole = kde.score_samples(queries)
        rows = rng.permutation(len(queries))
        assert np.array_equal(kde.score_samples(queries[rows]), whole[rows])
        # Other chunk shapes may reorder BLAS dot products: last bits only.
        elems = chunk_rows * sum(kde._support_aug.shape)
        with mock.patch.object(kde_module, "_CHUNK_ELEMS", elems):
            split = kde.score_samples(queries)
        np.testing.assert_allclose(split, whole, rtol=1e-12, atol=1e-12)

    @PROPERTY
    @given(kde_problem())
    def test_exclude_leaves_one_kernel_out(self, problem):
        kde, queries, rng = problem
        exclude = rng.integers(-1, kde.count_, len(queries))
        got = kde.score_samples(queries, exclude=exclude)
        kept = exclude == -1
        assert np.array_equal(got[kept], kde.score_samples(queries)[kept])
        for i in np.flatnonzero(~kept)[:5]:
            rest = np.delete(kde.support_, exclude[i], axis=0)
            smaller = GaussianKde.from_parameters(rest, kde.bandwidth_, kde.covariance_)
            with np.errstate(divide="ignore"):  # the oracle's plain exp underflows
                want = naive_log_density(smaller, queries[i : i + 1])[0]
            assert np.isfinite(got[i])
            if np.isfinite(want):
                assert abs(got[i] - want) <= 1e-10 * max(abs(want), 1.0)

    def test_exclude_validation(self):
        kde = fit_kde(np.arange(6.0).reshape(3, 2))
        queries = np.zeros((2, 2))
        for bad in ([0], [0, 3], [-2, 0], [0.0, 1.0]):
            with pytest.raises(ValidationError) as exc:
                kde.score_samples(queries, exclude=np.array(bad))
            assert exc.value.code == "index_out_of_range"
        single = fit_kde(np.zeros((1, 2)))
        assert np.isfinite(single.score_samples(queries, exclude=[-1, -1])).all()
        with pytest.raises(ValidationError) as exc:
            single.score_samples(queries, exclude=[0, -1])
        assert exc.value.code == "bad_batch_spec"


def shifted_reference(kde, queries, exclude=None):
    """``score_samples`` with every chunk reduced by the max-shifted
    ``_logsumexp`` over the same ``_kernel_exponents``."""
    queries = np.asarray(queries, dtype=np.float64)
    log_count = np.full(len(queries), np.log(kde.count_))
    if exclude is not None:
        log_count[exclude >= 0] = np.log(kde.count_ - 1)
    out = np.empty(len(queries))
    for rows, _, expo in kde_module._kernel_exponents(
        queries, kde._center, kde._support_aug, kde._whitener, exclude
    ):
        out[rows] = kde_module._logsumexp(expo, axis=1)
    return kde.log_norm_ + out - log_count


@st.composite
def shift_problem(draw):
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.standard_normal((draw(st.integers(2, 150)), d))
    queries = 1.5 * rng.standard_normal((draw(st.integers(1, 80)), d))
    queries += draw(st.sampled_from([0.0, 3.0, 30.0, 1e3])) * rng.standard_normal(d)
    kde = fit_kde(support, BandwidthSpec(draw(st.floats(0.05, 8.0))))
    return kde, queries, rng.integers(-1, kde.count_, len(queries))


class TestShiftFree:
    """Chunks summed without the log-sum-exp max shift, and the chunks that
    fall back to it."""

    @PROPERTY
    @given(shift_problem())
    def test_matches_shifted_reference(self, problem):
        kde, queries, exclude = problem
        for ex in (None, exclude):
            got = kde.score_samples(queries, exclude=ex)
            want = shifted_reference(kde, queries, ex)
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1))

    @staticmethod
    def _assert_fallback_exact(kde, queries, exclude=None):
        got = kde.score_samples(queries, exclude=exclude)
        assert np.isfinite(got).all()
        assert np.array_equal(got, shifted_reference(kde, queries, exclude))

    @pytest.mark.parametrize("shape", [(50, 768), (20, 64)])
    def test_rank_deficient_target(self, shape):
        rng = np.random.default_rng(31)
        kde = fit_kde(rng.standard_normal(shape))
        self._assert_fallback_exact(kde, rng.standard_normal((300, shape[1])))

    def test_far_queries_and_one_far_row(self):
        rng = np.random.default_rng(32)
        kde = fit_kde(rng.standard_normal((200, 4)))
        queries = rng.standard_normal((60, 4))
        self._assert_fallback_exact(kde, queries + 1e3)
        queries[17] += 1e3
        exclude = rng.integers(-1, kde.count_, len(queries))
        for ex in (None, exclude):
            self._assert_fallback_exact(kde, queries, ex)

    def test_rounding_guard_at_tiny_bandwidth(self):
        # At scale_c 1e-9 the exponents of a query on a support row cancel
        # terms of about 1e19, so they come out thousands off zero. Keep the
        # rows whose largest exponent is >= -600: every support column is
        # probed (40 <= 64), so only the rounding guard stops the shift-free
        # sum, which would overflow on rows whose exponent exceeds 709.
        support = np.random.default_rng(33).standard_normal((40, 8))
        kde = fit_kde(support, BandwidthSpec(1e-9))

        def row_max(queries):
            (_, _, expo), = kde_module._kernel_exponents(
                queries, kde._center, kde._support_aug, kde._whitener
            )
            return expo.max(axis=1)

        queries = support[row_max(support) >= kde_module._SHIFT_FREE_FLOOR]
        peaks = row_max(queries)
        assert peaks.min() >= kde_module._SHIFT_FREE_FLOOR and peaks.max() > 710
        self._assert_fallback_exact(kde, queries)

    def test_which_chunks_shift(self, monkeypatch):
        rng = np.random.default_rng(34)
        prior = rng.standard_normal((16384, 32))
        target_kde = fit_kde(rng.standard_normal((500, 32)))
        batch_kdes = fit_prior_batched(prior, PriorBatchSpec(4096, 8, rng_seed=34))
        queries = prior[:1200]
        shifted, chunks = [], []
        lse, engine = kde_module._logsumexp, kde_module._kernel_exponents

        def counted_lse(values, axis):
            shifted.append(values.shape)
            return lse(values, axis)

        def counted_engine(*args, **kwargs):
            for chunk in engine(*args, **kwargs):
                chunks.append(chunk[2].shape)
                yield chunk

        monkeypatch.setattr(kde_module, "_logsumexp", counted_lse)
        monkeypatch.setattr(kde_module, "_kernel_exponents", counted_engine)
        # An iwr job's calls at criterion-12 shapes, plain and leaving self out.
        target_kde.score_samples(queries)
        for kde in batch_kdes:
            ids = kde.support_row_ids_
            inside = np.flatnonzero(ids < len(queries))
            exclude = np.full(len(queries), -1)
            exclude[ids[inside]] = inside
            kde.score_samples(queries)
            kde.score_samples(queries, exclude=exclude)
        assert len(chunks) > 17 and shifted == []
        chunks.clear()
        wide = fit_kde(rng.standard_normal((50, 768)))
        wide.score_samples(rng.standard_normal((3000, 768)))
        assert len(chunks) > 1 and shifted == chunks


class TestFloat32Queries:
    """Float32 rows are widened exactly, chunk by chunk: the results are the
    bits of the widened float64 rows."""

    @PROPERTY
    @given(grid_problem())
    def test_nearest_sq_dists(self, problem):
        target, prior = problem
        prior32 = prior.astype(np.float32)
        want = kde_module.nearest_sq_dists(prior32.astype(np.float64), target)
        assert np.array_equal(kde_module.nearest_sq_dists(prior32, target), want)

    @PROPERTY
    @given(kde_problem())
    def test_score_samples(self, problem):
        kde, queries, rng = problem
        q32 = queries.astype(np.float32)
        exclude = rng.integers(-1, kde.count_, len(queries))
        for ex in (None, exclude):
            want = kde.score_samples(q32.astype(np.float64), exclude=ex)
            assert np.array_equal(kde.score_samples(q32, exclude=ex), want)

    @pytest.mark.parametrize("method", ["nn", "kde"])
    def test_job_memory_is_one_chunk(self, method):
        # One 8192-row scoring job of a float32 prior at d=256 (nn: the
        # nn_wide shape): every temporary, query widening included, fits the
        # engine's budget.
        rng = np.random.default_rng(0)
        prior = rng.standard_normal((8192, 256)).astype(np.float32)
        if method == "nn":
            target = rng.standard_normal((128, 256))
            job = partial(kde_module.nearest_sq_dists, prior, target)
        else:
            kde = fit_kde(rng.standard_normal((512, 256)))
            job = partial(kde.score_samples, prior)
        tracemalloc.start()
        try:
            job()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * kde_module._CHUNK_ELEMS * 8


class TestScoringThreads:
    @settings(PROPERTY, max_examples=8)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_threads_do_not_change_results(self, seed, d):
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((int(rng.integers(2, 60)), d))
        prior = rng.standard_normal((int(rng.integers(8193, 9000)), d))
        kdes = fit_prior_batched(prior, PriorBatchSpec(300, 2, rng_seed=seed))
        tk = fit_kde(target)
        for score in (
            lambda t: score_nn_l2(target, prior, threads=t),
            lambda t: score_lse(target, prior, threads=t),
            lambda t: score_kde_target(tk, prior, threads=t),
            lambda t: score_importance_weight(
                tk, kdes, prior, leave_self_out=True, threads=t
            ),
        ):
            assert np.array_equal(score(1).values, score(4).values)


class TestSoftMaxLimit:
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_small_temperature_ranks_like_nn(self, seed, d):
        # Integer coordinates put distinct squared distances at least 1 apart,
        # far beyond the log(M) / h^2 a soft maximum adds at h = 0.1.
        rng = np.random.default_rng(seed)
        target = rng.integers(-5, 6, (int(rng.integers(1, 20)), d)).astype(float)
        prior = rng.integers(-8, 9, (200, d)).astype(float)
        nn = score_nn_l2(target, prior).values
        _, first = np.unique(nn, return_index=True)
        prior, nn = prior[first], nn[first]  # rankings of ties are index order
        lse = score_lse(target, prior, 0.1).values
        assert np.array_equal(ranking(nn), ranking(lse))
