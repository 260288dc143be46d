"""Task breakdown, timestep histogram, and the diagnostics report."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from helpers import metadata_table
from iwre.analysis import (
    MAX_BINS,
    UNLABELED_TASK,
    emit_report,
    load_report,
    task_bin_counts,
    task_breakdown,
    timestep_histogram,
)
from iwre.errors import ValidationError
from iwre.retrieval import RetrievalManifest, SelectionRule


def manifest_of(indices):
    idx = np.asarray(sorted(indices), dtype=np.int64)
    return RetrievalManifest(
        idx, np.zeros(len(idx)), SelectionRule.THRESHOLD, 0.0, "fp"
    )


def meta_rows(tasks, episode_length=10):
    return metadata_table(
        (i // episode_length, i % episode_length, episode_length, task)
        for i, task in enumerate(tasks)
    )


class TestTaskBreakdown:
    def test_single_task_fraction_one(self):
        meta = meta_rows(["a"] * 5)
        breakdown = task_breakdown(manifest_of(range(5)), meta, {"a": "relevant"})
        assert breakdown.per_task_fractions == {"a": 1.0}

    def test_mixed_tasks(self):
        meta = meta_rows(["A", "A", "B", "C"], episode_length=4)
        breakdown = task_breakdown(
            manifest_of(range(4)),
            meta,
            {"A": "relevant", "B": "mixed", "C": "harmful"},
        )
        assert breakdown.per_task_fractions == {"A": 0.5, "B": 0.25, "C": 0.25}
        assert breakdown.per_task_counts == {"A": 2, "B": 1, "C": 1}
        assert breakdown.relevance_labels == {
            "A": "relevant",
            "B": "mixed",
            "C": "harmful",
        }

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(0)
        tasks = [f"t{int(i)}" for i in rng.integers(0, 7, 100)]
        meta = meta_rows(tasks)
        breakdown = task_breakdown(
            manifest_of(rng.choice(100, 40, replace=False)), meta, {}
        )
        assert abs(sum(breakdown.per_task_fractions.values()) - 1.0) <= 1e-12

    def test_missing_label_defaults_harmful_with_warning(self, caplog):
        meta = meta_rows(["mystery"] * 3)
        with caplog.at_level(logging.WARNING, logger="iwre.analysis"):
            breakdown = task_breakdown(manifest_of(range(3)), meta, {})
        assert breakdown.relevance_labels == {"mystery": "harmful"}
        assert any("mystery" in rec.message for rec in caplog.records)

    def test_unlabeled_rows_bucketed(self):
        meta = meta_rows(["a", None, "a", None], episode_length=4)
        breakdown = task_breakdown(manifest_of(range(4)), meta, {"a": "relevant"})
        assert breakdown.per_task_counts == {"a": 2, UNLABELED_TASK: 2}

    def test_fully_unlabeled_selection_is_empty_breakdown(self):
        meta = meta_rows([None] * 4, episode_length=4)
        breakdown = task_breakdown(manifest_of(range(4)), meta, {})
        assert breakdown.per_task_counts == {}

    def test_bad_relevance_level(self):
        meta = meta_rows(["a"])
        with pytest.raises(ValidationError) as exc:
            task_breakdown(manifest_of([0]), meta, {"a": "great"})
        assert exc.value.code == "bad_relevance"

    def test_metadata_mismatch(self):
        meta = meta_rows(["a"] * 3)
        with pytest.raises(ValidationError) as exc:
            task_breakdown(manifest_of([5]), meta, {})
        assert exc.value.code == "metadata_mismatch"

    def test_conservation(self):
        rng = np.random.default_rng(2)
        tasks = [f"t{int(i)}" for i in rng.integers(0, 4, 60)]
        manifest = manifest_of(rng.choice(60, 25, replace=False))
        breakdown = task_breakdown(manifest, meta_rows(tasks), {})
        assert sum(breakdown.per_task_counts.values()) == manifest.size


class TestTimestepHistogram:
    def test_early_steps_in_bin_zero(self):
        meta = metadata_table((0, i, 100, None) for i in range(100))
        hist = timestep_histogram(manifest_of(range(10)), meta, 10)
        assert hist.counts[0] == 10 and hist.counts[1:].sum() == 0

    def test_three_known_bins(self):
        meta = metadata_table((0, i, 100, None) for i in range(100))
        hist = timestep_histogram(manifest_of([0, 50, 99]), meta, 10)
        want = np.zeros(10, dtype=np.int64)
        want[[0, 5, 9]] = 1
        np.testing.assert_array_equal(hist.counts, want)

    def test_boundaries(self):
        # step 0 -> first bin; final step -> final bin (episodes >= bin count)
        for length in (10, 11, 25, 100, 1000):
            meta = metadata_table(
                (0, s, length, None) for s in range(length)
            )
            hist = timestep_histogram(manifest_of([0, length - 1]), meta, 10)
            assert hist.counts[0] == 1
            assert hist.counts[9] == 1

    def test_single_bin(self):
        meta = metadata_table((0, i, 5, None) for i in range(5))
        hist = timestep_histogram(manifest_of(range(5)), meta, 1)
        assert hist.counts.tolist() == [5]

    def test_bins_in_range_for_any_length(self):
        rng = np.random.default_rng(8)
        meta = []
        for episode in range(50):
            length = int(rng.integers(1, 40))
            meta.extend((episode, s, length, None) for s in range(length))
        manifest = manifest_of(range(len(meta)))
        hist = timestep_histogram(manifest, metadata_table(meta), 10)
        assert hist.counts.sum() == manifest.size
        assert len(hist.counts) == 10

    def test_normalized_sums_to_one(self):
        meta = metadata_table((0, i, 20, None) for i in range(20))
        hist = timestep_histogram(manifest_of(range(20)), meta, 10)
        assert abs(hist.normalized.sum() - 1.0) <= 1e-12

    def test_uniform_selection_is_chi2_uniform(self):
        rng = np.random.default_rng(123)
        length = 200
        episodes = 100
        meta = metadata_table(
            (e, s, length, None) for e in range(episodes) for s in range(length)
        )
        selected = rng.choice(len(meta), 10_000, replace=False)
        hist = timestep_histogram(manifest_of(selected), meta, 10)
        _, pvalue = chisquare(hist.counts)
        assert pvalue >= 0.01

    def test_bin_count_validation(self):
        meta = metadata_table([(0, 0, 1, None)])
        with pytest.raises(ValidationError):
            timestep_histogram(manifest_of([0]), meta, 0)

    def test_bin_count_is_capped(self):
        meta = metadata_table([(0, 0, 1, "a")])
        assert timestep_histogram(manifest_of([0]), meta, MAX_BINS).counts[0] == 1
        for bins in (MAX_BINS + 1, 2**30, 10**14):
            with pytest.raises(ValidationError) as exc:
                timestep_histogram(manifest_of([0]), meta, bins)
            assert exc.value.code == "bad_param"


class TestTaskBinCounts:
    def test_crossed_table_matches_marginals(self):
        rng = np.random.default_rng(6)
        tasks = [f"t{int(i)}" for i in rng.integers(0, 3, 80)]
        meta = meta_rows(tasks, episode_length=20)
        manifest = manifest_of(rng.choice(80, 30, replace=False))
        crossed = task_bin_counts(manifest, meta, 10)
        hist = timestep_histogram(manifest, meta, 10)
        breakdown = task_breakdown(manifest, meta, {})
        per_bin = np.sum([row for row in crossed.values()], axis=0)
        np.testing.assert_array_equal(per_bin, hist.counts)
        assert {t: sum(r) for t, r in crossed.items()} == breakdown.per_task_counts

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(1, 40), st.integers(0, 39),
                      st.sampled_from([None, "a", "b", UNLABELED_TASK])),
            min_size=1, max_size=40),
        bins=st.integers(1, 12),
        data=st.data(),
    )
    def test_matches_row_loop(self, rows, bins, data):
        # One bincount over task code x bin gives the per-row loop's counts; a
        # task labelled "(unlabeled)" shares the unlabeled rows' entry.
        meta = [(0, step % length, length, task) for length, step, task in rows]
        selected = data.draw(st.sets(st.integers(0, len(meta) - 1), min_size=1))
        expected: dict = {}
        for i in sorted(selected):
            _, step, length, task = meta[i]
            row = expected.setdefault(task or UNLABELED_TASK, [0] * bins)
            row[step * bins // length] += 1
        table = metadata_table(meta)
        assert task_bin_counts(manifest_of(selected), table, bins) == expected

    def test_huge_episode_lengths_bin_exactly(self):
        # step * bins would overflow int64; the bin is still exact.
        length = 10**18
        meta = metadata_table([(0, length - 1, length, "a")])
        assert task_bin_counts(manifest_of([0]), meta, 100) == {"a": [0] * 99 + [1]}

    def test_known_placement(self):
        meta = metadata_table(
            (0, s, 100, "a" if s < 50 else "b") for s in range(100)
        )
        crossed = task_bin_counts(manifest_of([0, 99]), meta, 10)
        assert crossed["a"][0] == 1 and crossed["b"][9] == 1


class TestReport:
    def build(self):
        meta = meta_rows(["a", "a", "b", None], episode_length=4)
        manifest = manifest_of(range(4))
        breakdown = task_breakdown(manifest, meta, {"a": "relevant", "b": "mixed"})
        hist = timestep_histogram(manifest, meta, 4)
        return breakdown, hist

    def test_round_trip_exact_numbers(self, tmp_path):
        breakdown, hist = self.build()
        path = tmp_path / "report.json"
        emit_report(
            breakdown,
            hist,
            path,
            fingerprint="abc123",
            method="iwr",
            evaluation={"precision": 1 / 3, "recall": 0.2},
        )
        report = load_report(path)
        assert report["config_fingerprint"] == "abc123"
        assert report["method"] == "iwr"
        assert report["tasks"]["fractions"]["a"] == breakdown.per_task_fractions["a"]
        assert report["timesteps"]["counts"] == hist.counts.tolist()
        assert report["timesteps"]["normalized"] == hist.normalized.tolist()
        assert report["evaluation"]["precision"] == 1 / 3

    def test_histogram_only_when_no_labels(self, tmp_path):
        meta = meta_rows([None] * 4, episode_length=4)
        manifest = manifest_of(range(4))
        breakdown = task_breakdown(manifest, meta, {})
        hist = timestep_histogram(manifest, meta, 2)
        path = tmp_path / "report.json"
        emit_report(breakdown, hist, path)
        report = load_report(path)
        assert report["tasks"] is None
        assert report["timesteps"]["counts"] == [2, 2]

    def test_emit_is_deterministic(self, tmp_path):
        breakdown, hist = self.build()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(breakdown, hist, a, fingerprint="f")
        emit_report(breakdown, hist, b, fingerprint="f")
        assert a.read_bytes() == b.read_bytes()
