"""Property tests of the kernel engine behind all four scoring rules."""

import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_force_min_sq_dists,
    logsumexp,
    lse_config,
    naive_log_density,
    ranking,
)
from iwre import kde as kde_module
from iwre.errors import ValidationError
from iwre.kde import BandwidthSpec, GaussianKde, fit_kde
from iwre.scoring import PriorBatchSpec, ScoreMethod, ScoringConfig, fit_prior_batched

NN = ScoringConfig(ScoreMethod.NN_L2)

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
    return fit_kde(support, BandwidthSpec(scale)), support, queries, rng


class TestNearestNeighbor:
    @PROPERTY
    @given(grid_problem())
    def test_equals_brute_force(self, problem):
        target, prior = problem
        got = NN.score(target, prior).values
        assert np.array_equal(got, -brute_force_min_sq_dists(prior, target))

    @PROPERTY
    @given(far_tie_problem())
    def test_equals_brute_force_at_far_near_ties(self, problem):
        target, prior = problem
        got = NN.score(target, prior).values
        assert np.array_equal(got, -brute_force_min_sq_dists(prior, target))

    @PROPERTY
    @given(grid_problem(), st.integers(0, 2**32 - 1))
    def test_translation_and_permutation_invariance(self, problem, seed):
        target, prior = problem
        rng = np.random.default_rng(seed)
        base = NN.score(target, prior).values
        shift = rng.integers(-64, 65, target.shape[1]).astype(float)  # exact
        assert np.array_equal(NN.score(target + shift, prior + shift).values, base)
        rows = rng.permutation(len(prior))
        shuffled = NN.score(target[rng.permutation(len(target))], prior[rows])
        assert np.array_equal(shuffled.values, base[rows])


class TestScoreSamples:
    @PROPERTY
    @given(kde_problem(), st.integers(1, 90))
    def test_chunk_split_and_permutation(self, problem, chunk_rows):
        kde, _, queries, rng = problem
        whole = kde.score_samples(queries)
        rows = rng.permutation(len(queries))
        assert np.array_equal(kde.score_samples(queries[rows]), whole[rows])
        # Other row blocks may reorder BLAS dot products: last bits only.
        elems = chunk_rows * max(kde._support.shape)
        with mock.patch.object(kde_module, "_TILE_ELEMS", elems):
            split = kde.score_samples(queries)
        np.testing.assert_allclose(split, whole, rtol=1e-12, atol=1e-12)

    @PROPERTY
    @given(kde_problem())
    def test_exclude_leaves_one_kernel_out(self, problem):
        kde, support, queries, rng = problem
        exclude = rng.integers(-1, kde.count_, len(queries))
        got = kde.score_samples(queries, exclude=exclude)
        kept = exclude == -1
        assert np.array_equal(got[kept], kde.score_samples(queries)[kept])
        for i in np.flatnonzero(~kept)[:5]:
            rest = np.delete(support, exclude[i], axis=0)
            smaller = GaussianKde.from_parameters(rest, kde.bandwidth_, kde.covariance_)
            with np.errstate(divide="ignore"):  # the oracle's plain exp underflows
                want = naive_log_density(smaller, rest, queries[i : i + 1])[0]
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


def _log_count(kde, n, exclude):
    log_count = np.full(n, np.log(kde.count_))
    if exclude is not None:
        log_count[exclude >= 0] = np.log(kde.count_ - 1)
    return log_count


def shifted_reference(kde, queries, exclude=None):
    """``score_samples`` with every row reduced by the max-shifted
    ``logsumexp`` over its block's tiles from ``_kernel_exponents``, joined
    in column order."""
    queries = np.asarray(queries, dtype=np.float64)
    out = np.empty(len(queries))
    for rows, _, tiles in kde_module._kernel_exponents(
        queries, kde._center, kde._support, kde._whitener, exclude
    ):
        real = [expo[: rows.stop - rows.start].copy() for expo in tiles()]
        out[rows] = logsumexp(np.hstack(real), axis=1)
    return kde.log_norm_ + out - _log_count(kde, len(queries), exclude)


def full_width_oracle(kde, queries, exclude=None):
    """The max-shifted ``logsumexp`` over one GEMM of the whole augmented
    support, with no blocks or tiles. A zero query row is appended and
    dropped, as the engine pads its blocks: numpy hands a lone row's product
    to GEMV, which rounds differently."""
    w = (np.asarray(queries, dtype=np.float64) - kde._center) @ kde._whitener
    w = np.vstack([w, np.zeros(w.shape[1])])
    ones = np.ones((len(w), 1))
    aug = np.hstack([w, -0.5 * np.einsum("ij,ij->i", w, w)[:, None], ones])
    expo = (aug @ kde._support)[:-1]
    if exclude is not None:
        hit = np.flatnonzero(exclude >= 0)
        expo[hit, exclude[hit]] = -np.inf
    out = logsumexp(expo, axis=1)
    return kde.log_norm_ + out - _log_count(kde, len(queries), exclude)


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
    """Rows summed without the log-sum-exp max shift, and the rows that are
    summed again with it."""

    @PROPERTY
    @given(shift_problem())
    def test_matches_shifted_reference(self, problem):
        kde, queries, exclude = problem
        for ex in (None, exclude):
            got = kde.score_samples(queries, exclude=ex)
            want = shifted_reference(kde, queries, ex)
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1))

    @PROPERTY
    @given(shift_problem(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_far_rows_leave_their_block_alone(self, problem, far, seed):
        # Which sum a row takes depends on that row alone: rows moved 1e3
        # out, and so summed again, leave the other rows of their block as
        # they were, bit for bit.
        kde, queries, exclude = problem
        rng = np.random.default_rng(seed)
        moved = queries.copy()
        rows = rng.choice(len(queries), min(far, len(queries) - 1), replace=False)
        moved[rows] += 1e3 * rng.standard_normal(queries.shape[1])
        kept = np.setdiff1d(np.arange(len(queries)), rows)
        for ex in (None, exclude):
            got = kde.score_samples(moved, exclude=ex)
            want = kde.score_samples(queries, exclude=ex)
            assert np.array_equal(got[kept], want[kept])

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
        moved = queries.copy()
        moved[17] += 1e3
        near = np.arange(len(queries)) != 17
        exclude = rng.integers(-1, kde.count_, len(queries))
        for ex in (None, exclude):
            got = kde.score_samples(moved, exclude=ex)
            want = shifted_reference(kde, moved, ex)
            assert np.isfinite(got).all() and got[17] == want[17]
            alone = kde.score_samples(queries, exclude=ex)
            assert np.array_equal(got[near], alone[near])

    def test_rounding_guard_at_tiny_bandwidth(self):
        # At scale_c 1e-9 the exponents of a query on a support row cancel
        # terms of about 1e19, so they come out thousands off zero. Keep the
        # rows whose largest exponent is >= -600: those above 709 overflow
        # their plain sum, so they must be summed again with the shift.
        support = np.random.default_rng(33).standard_normal((40, 8))
        kde = fit_kde(support, BandwidthSpec(1e-9))

        def row_max(queries):
            (rows, _, tiles), = kde_module._kernel_exponents(
                queries, kde._center, kde._support, kde._whitener
            )
            (expo,) = tiles()
            return expo[: rows.stop].max(axis=1)

        queries = support[row_max(support) >= -600]
        peaks = row_max(queries)
        assert peaks.min() >= -600 and peaks.max() > 710
        self._assert_fallback_exact(kde, queries)

    def test_which_chunks_shift(self, monkeypatch):
        rng = np.random.default_rng(34)
        prior = rng.standard_normal((16384, 32))
        target_kde = fit_kde(rng.standard_normal((500, 32)))
        batch_kdes = fit_prior_batched(prior, PriorBatchSpec(4096, 8, rng_seed=34))
        queries = prior[:1200]
        again = []
        resum = kde_module._shifted_sums

        def counted(tiles, mask):
            again.append(int(mask.sum()))
            return resum(tiles, mask)

        monkeypatch.setattr(kde_module, "_shifted_sums", counted)
        # An iwr job's calls at criterion-12 shapes, plain and leaving self
        # out: every support spans several tiles, and no row is summed again.
        target_kde.score_samples(queries)
        for kde in batch_kdes:
            ids = kde.support_row_ids_
            inside = np.flatnonzero(ids < len(queries))
            exclude = np.full(len(queries), -1)
            exclude[ids[inside]] = inside
            kde.score_samples(queries)
            kde.score_samples(queries, exclude=exclude)
        assert sum(again) == 0
        wide = fit_kde(rng.standard_normal((50, 768)))
        wide.score_samples(rng.standard_normal((3000, 768)))
        assert len(again) > 1 and sum(again) == 3000

    def test_probe_leaves_excluded_column_out(self):
        # Kernels 1 apart with variance 1e-4: a support row's exponents are
        # 0 at itself and at most -5000 elsewhere. Leaving itself out, a row
        # must be summed again: its plain sum would be 0.
        support = np.arange(600.0)[:, None]
        kde = GaussianKde.from_parameters(support, 1.0, [[1e-4]])
        assert kde._support.shape[1] > kde_module._TILE_COLS
        exclude = np.arange(0, 600, -(-600 // 64))
        got = kde.score_samples(support[exclude], exclude=exclude)
        assert np.isfinite(got).all()
        want = full_width_oracle(kde, support[exclude], exclude)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1))


@st.composite
def tiled_problem(draw):
    """Supports of one to four tiles, queries some of which sit far enough
    out to be summed again with the max shift, and exclusions on the first
    and last column of a tile and on a lone real column of the last tile."""
    cols = kde_module._TILE_COLS
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.one_of(
        st.integers(cols - 1, 3 * cols + 1),
        st.sampled_from([cols, cols + 1, 2 * cols - 8, 2 * cols, 2 * cols + 1,
                         3 * cols, 3 * cols + 1, 3 * cols - 8]),
    ))
    support = rng.standard_normal((m, d))
    n = draw(st.integers(1, 60))
    queries = 1.5 * rng.standard_normal((n, d))
    far = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    queries[far] += draw(st.sampled_from([30.0, 1e3])) * rng.standard_normal(d)
    kde = fit_kde(support, BandwidthSpec(draw(st.floats(0.05, 8.0))))
    edges = [c + e for c in range(0, m, cols) for e in (0, cols - 1)]
    choices = np.array([-1, m - 1, *[e for e in edges if e < m]])
    exclude = rng.choice(choices, n)
    return kde, queries, exclude, draw(st.integers(1, 60))


class TestTiles:
    """The tiled kernel sum against one full-width GEMM."""

    @PROPERTY
    @given(tiled_problem())
    def test_matches_full_width_oracle(self, problem):
        kde, queries, exclude, block_rows = problem
        elems = block_rows * max(kde_module._TILE_COLS, kde._support.shape[0])
        with mock.patch.object(kde_module, "_TILE_ELEMS", elems):
            for ex in (None, exclude):
                got = kde.score_samples(queries, exclude=ex)
                want = full_width_oracle(kde, queries, ex)
                assert np.all(
                    np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want), 1)
                )


@st.composite
def remainder_problem(draw):
    """A support of one tile or several, and 17 queries, some of which may
    sit far enough out to be summed again with the max shift."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.standard_normal((draw(st.sampled_from([2, 9, 120, 300, 700])), d))
    queries = 1.5 * rng.standard_normal((17, d))
    far = rng.random(17) < draw(st.sampled_from([0.0, 0.2]))
    queries[far] += 1e3 * rng.standard_normal(d)
    kde = fit_kde(support, BandwidthSpec(draw(st.floats(0.05, 8.0))))
    return kde, queries, rng


class TestRowBlocks:
    """Row blocks are whole groups of ``_SUPPORT_BLOCK`` rows, padded with
    zero queries, so a row's GEMM and GEMV bits do not depend on where in
    its block it sits."""

    @settings(PROPERTY, max_examples=20)
    @given(remainder_problem())
    def test_permutation_is_bit_exact_for_every_remainder(self, problem):
        kde, queries, rng = problem
        for n in range(1, 18):
            q, rows = queries[:n], rng.permutation(n)
            exclude = rng.integers(-1, kde.count_, n)
            for ex in (None, exclude):
                whole = kde.score_samples(q, exclude=ex)
                moved = None if ex is None else ex[rows]
                shuffled = kde.score_samples(q[rows], exclude=moved)
                assert np.array_equal(shuffled, whole[rows])

    @pytest.mark.parametrize("d,m", [(2, 4096), (8, 600)])
    def test_a_row_alone_has_its_block_bits(self, d, m):
        # No row is summed again, so a row scored alone, in a block of one
        # row and seven zero queries, is whitened and reduced as in a full
        # block. Not at every d: at d=32 OpenBLAS's AVX-512 kernels
        # whiten an 8-row block with another kernel than a 300-row one.
        rng = np.random.default_rng(37)
        kde = fit_kde(rng.standard_normal((m, d)))
        queries = rng.standard_normal((300, d))
        whole = kde.score_samples(queries)
        for i in range(0, len(queries), 7):
            assert kde.score_samples(queries[i : i + 1])[0] == whole[i]

    @pytest.mark.parametrize("d", [1, 2, 32, 254, 255, 300, 1024])
    def test_blocks_are_whole_groups_within_the_budget(self, d):
        rng = np.random.default_rng(d)
        kde = fit_kde(rng.standard_normal((300, d)))  # two tiles
        n, group = 1027, kde_module._SUPPORT_BLOCK
        queries = rng.standard_normal((n, d))
        blocks = {}
        for rows, aug, tiles in kde_module._kernel_exponents(
            queries, kde._center, kde._support, kde._whitener
        ):
            count = rows.stop - rows.start
            assert len(aug) % group == 0 and count <= len(aug) < count + group
            assert np.all(aug[count:, : d + 1] == 0) and np.all(aug[count:, -1] == 1)
            for expo in tiles():
                assert len(expo) == len(aug)
                for buf in (aug.base, expo.base):
                    assert buf.size <= kde_module._TILE_ELEMS
            blocks[rows.start] = count
        starts, counts = list(blocks), list(blocks.values())
        assert starts == sorted(starts) and sum(counts) == n
        assert len(counts) > 1 and counts[0] % group == 0
        assert set(counts[:-1]) == {counts[0]} and counts[-1] <= counts[0]


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
        kde, _, queries, rng = problem
        q32 = queries.astype(np.float32)
        exclude = rng.integers(-1, kde.count_, len(queries))
        for ex in (None, exclude):
            want = kde.score_samples(q32.astype(np.float64), exclude=ex)
            assert np.array_equal(kde.score_samples(q32, exclude=ex), want)

    @pytest.mark.parametrize("method,target_rows", [("nn", 128), ("kde", 512),
                                                    ("kde", 128)],
                             ids=["nn", "kde", "kde_fewer_rows_than_dims"])
    def test_job_memory_is_one_chunk(self, method, target_rows):
        # One 8192-row scoring job of a float32 prior at d=256 (nn: the
        # nn_wide shape): every temporary, query widening included, fits two
        # of the engine's 1 MiB budgets (a KDE block's two buffers) plus
        # eight float64 vectors of the job's rows, also for a whitened
        # support with fewer rows than dimensions.
        rng = np.random.default_rng(0)
        prior = rng.standard_normal((8192, 256)).astype(np.float32)
        if method == "nn":
            target = rng.standard_normal((target_rows, 256))
            job = partial(kde_module.nearest_sq_dists, prior, target)
        else:
            kde = fit_kde(rng.standard_normal((target_rows, 256)))
            job = partial(kde.score_samples, prior)
        tracemalloc.start()
        try:
            job()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * kde_module._TILE_ELEMS * 8 + 8 * len(prior) * 8

    def test_kde_job_memory_is_tiles(self):
        # One 8192-row scoring job against a 4096-kernel support at d=32,
        # the criterion-12 shape: the engine's scratch is a few tiles, not
        # the job's rows times the support.
        rng = np.random.default_rng(1)
        kde = fit_kde(rng.standard_normal((4096, 32)))
        prior = rng.standard_normal((8192, 32))
        tracemalloc.start()
        try:
            kde.score_samples(prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestScoringThreads:
    @settings(PROPERTY, max_examples=8)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_threads_do_not_change_results(self, seed, d):
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((int(rng.integers(2, 60)), d))
        prior = rng.standard_normal((int(rng.integers(8193, 9000)), d))
        for config in (
            NN, ScoringConfig(ScoreMethod.LSE), ScoringConfig(ScoreMethod.KDE_TARGET),
            ScoringConfig(batch_size=300, num_batches=2, seed=seed, leave_self_out=True),
        ):
            assert np.array_equal(config.score(target, prior, threads=1).values,
                                  config.score(target, prior, threads=4).values)

    def test_threads_do_not_change_multi_tile_results(self):
        # Target and batches of three tiles each, two scoring jobs.
        rng = np.random.default_rng(36)
        target = rng.standard_normal((600, 3))
        prior = rng.standard_normal((9000, 3))
        kdes = fit_prior_batched(prior, PriorBatchSpec(700, 2, rng_seed=36))
        tk = fit_kde(target)
        assert min(k._support.shape[1] for k in [tk, *kdes]) > 2 * kde_module._TILE_COLS
        for config in (
            ScoringConfig(ScoreMethod.LSE), ScoringConfig(ScoreMethod.KDE_TARGET),
            ScoringConfig(batch_size=700, num_batches=2, seed=36, leave_self_out=True),
        ):
            assert np.array_equal(config.score(target, prior, threads=1).values,
                                  config.score(target, prior, threads=4).values)


class TestSoftMaxLimit:
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_small_temperature_ranks_like_nn(self, seed, d):
        # Integer coordinates put distinct squared distances at least 1 apart,
        # far beyond the log(M) / h^2 a soft maximum adds at h = 0.1.
        rng = np.random.default_rng(seed)
        target = rng.integers(-5, 6, (int(rng.integers(1, 20)), d)).astype(float)
        prior = rng.integers(-8, 9, (200, d)).astype(float)
        nn = NN.score(target, prior).values
        _, first = np.unique(nn, return_index=True)
        prior, nn = prior[first], nn[first]  # rankings of ties are index order
        lse = lse_config(0.1, target).score(target, prior).values
        assert np.array_equal(ranking(nn), ranking(lse))
