"""The crossed task x time-bin table and the diagnostics report built from it."""

import json
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from helpers import metadata_table
from iwre.analysis import (
    MAX_BINS,
    UNLABELED_TASK,
    build_report,
    emit_report,
    load_report,
    task_bin_counts,
)
from iwre.dataset import MetadataTable
from iwre.errors import ValidationError
from iwre.retrieval import RetrievalManifest, SelectionRule
from iwre.scoring import ScoreMethod
from iwre.synthbench import evaluate_retrieval, row_relevance


def manifest_of(indices, fingerprint="fp", method=None):
    idx = np.asarray(sorted(indices), dtype=np.int64)
    return RetrievalManifest(
        idx, np.zeros(len(idx)), SelectionRule.THRESHOLD, 0.0, fingerprint,
        method=method,
    )


def meta_rows(tasks, episode_length=10):
    return metadata_table(
        (i // episode_length, i % episode_length, episode_length, task)
        for i, task in enumerate(tasks)
    )


def tasks_of(manifest, meta, labels=None):
    """The ``tasks`` section of the report of ``manifest`` against ``meta``."""
    return build_report(manifest, meta, labels=labels)["tasks"]


def timesteps_of(manifest, meta, bin_count):
    """The ``timesteps`` section of the report of ``manifest`` against ``meta``."""
    return build_report(manifest, meta, bin_count=bin_count)["timesteps"]


class TestReportTasks:
    def test_single_task_fraction_one(self):
        meta = meta_rows(["a"] * 5)
        tasks = tasks_of(manifest_of(range(5)), meta, {"a": "relevant"})
        assert tasks["fractions"] == {"a": 1.0}

    def test_mixed_tasks(self):
        meta = meta_rows(["A", "A", "B", "C"], episode_length=4)
        tasks = tasks_of(
            manifest_of(range(4)),
            meta,
            {"A": "relevant", "B": "mixed", "C": "harmful"},
        )
        assert tasks["fractions"] == {"A": 0.5, "B": 0.25, "C": 0.25}
        assert tasks["counts"] == {"A": 2, "B": 1, "C": 1}
        assert tasks["relevance"] == {
            "A": "relevant",
            "B": "mixed",
            "C": "harmful",
        }

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(0)
        tasks = [f"t{int(i)}" for i in rng.integers(0, 7, 100)]
        meta = meta_rows(tasks)
        tasks = tasks_of(manifest_of(rng.choice(100, 40, replace=False)), meta, {})
        assert abs(sum(tasks["fractions"].values()) - 1.0) <= 1e-12

    def test_missing_label_defaults_harmful_with_warning(self, caplog):
        meta = meta_rows(["mystery"] * 3)
        with caplog.at_level(logging.WARNING, logger="iwre.analysis"):
            tasks = tasks_of(manifest_of(range(3)), meta, {})
        assert tasks["relevance"] == {"mystery": "harmful"}
        assert any("mystery" in rec.message for rec in caplog.records)

    def test_unlabeled_rows_bucketed(self):
        meta = meta_rows(["a", None, "a", None], episode_length=4)
        tasks = tasks_of(manifest_of(range(4)), meta, {"a": "relevant"})
        assert tasks["counts"] == {"a": 2, UNLABELED_TASK: 2}

    def test_fully_unlabeled_selection_has_no_tasks_section(self):
        meta = meta_rows([None] * 4, episode_length=4)
        assert tasks_of(manifest_of(range(4)), meta, {}) is None

    def test_bad_relevance_level(self):
        meta = meta_rows(["a"])
        with pytest.raises(ValidationError) as exc:
            build_report(manifest_of([0]), meta, labels={"a": "great"})
        assert exc.value.code == "bad_relevance"

    def test_metadata_mismatch(self):
        meta = meta_rows(["a"] * 3)
        with pytest.raises(ValidationError) as exc:
            build_report(manifest_of([5]), meta, labels={})
        assert exc.value.code == "metadata_mismatch"

    def test_conservation(self):
        rng = np.random.default_rng(2)
        tasks = [f"t{int(i)}" for i in rng.integers(0, 4, 60)]
        manifest = manifest_of(rng.choice(60, 25, replace=False))
        counts = tasks_of(manifest, meta_rows(tasks), {})["counts"]
        assert sum(counts.values()) == manifest.size


class TestReportTimesteps:
    def test_early_steps_in_bin_zero(self):
        meta = metadata_table((0, i, 100, None) for i in range(100))
        counts = timesteps_of(manifest_of(range(10)), meta, 10)["counts"]
        assert counts[0] == 10 and sum(counts[1:]) == 0

    def test_three_known_bins(self):
        meta = metadata_table((0, i, 100, None) for i in range(100))
        counts = timesteps_of(manifest_of([0, 50, 99]), meta, 10)["counts"]
        want = np.zeros(10, dtype=np.int64)
        want[[0, 5, 9]] = 1
        np.testing.assert_array_equal(counts, want)

    def test_boundaries(self):
        # step 0 -> first bin; final step -> final bin (episodes >= bin count)
        for length in (10, 11, 25, 100, 1000):
            meta = metadata_table(
                (0, s, length, None) for s in range(length)
            )
            counts = timesteps_of(manifest_of([0, length - 1]), meta, 10)["counts"]
            assert counts[0] == 1
            assert counts[9] == 1

    def test_single_bin(self):
        meta = metadata_table((0, i, 5, None) for i in range(5))
        assert timesteps_of(manifest_of(range(5)), meta, 1)["counts"] == [5]

    def test_bins_in_range_for_any_length(self):
        rng = np.random.default_rng(8)
        meta = []
        for episode in range(50):
            length = int(rng.integers(1, 40))
            meta.extend((episode, s, length, None) for s in range(length))
        manifest = manifest_of(range(len(meta)))
        counts = timesteps_of(manifest, metadata_table(meta), 10)["counts"]
        assert sum(counts) == manifest.size
        assert len(counts) == 10

    def test_normalized_sums_to_one(self):
        meta = metadata_table((0, i, 20, None) for i in range(20))
        normalized = timesteps_of(manifest_of(range(20)), meta, 10)["normalized"]
        assert abs(sum(normalized) - 1.0) <= 1e-12

    def test_uniform_selection_is_chi2_uniform(self):
        rng = np.random.default_rng(123)
        length = 200
        episodes = 100
        meta = metadata_table(
            (e, s, length, None) for e in range(episodes) for s in range(length)
        )
        selected = rng.choice(len(meta), 10_000, replace=False)
        _, pvalue = chisquare(timesteps_of(manifest_of(selected), meta, 10)["counts"])
        assert pvalue >= 0.01

    def test_bin_count_validation(self):
        meta = metadata_table([(0, 0, 1, None)])
        with pytest.raises(ValidationError):
            timesteps_of(manifest_of([0]), meta, 0)

    def test_bin_count_is_capped(self):
        meta = metadata_table([(0, 0, 1, "a")])
        assert timesteps_of(manifest_of([0]), meta, MAX_BINS)["counts"][0] == 1
        for bins in (MAX_BINS + 1, 2**30, 10**14):
            with pytest.raises(ValidationError) as exc:
                timesteps_of(manifest_of([0]), meta, bins)
            assert exc.value.code == "bad_param"


class TestTaskBinCounts:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(1, 30), st.integers(0, 29),
                      st.sampled_from([None, "a", "b", "c", UNLABELED_TASK])),
            min_size=1, max_size=40),
        bins=st.integers(1, 12),
        data=st.data(),
    )
    def test_report_is_sums_of_the_table(self, rows, bins, data):
        # The report's task counts are the table's row sums, its timestep
        # counts the column sums, and the fractions sum to 1.
        meta = metadata_table((0, step % length, length, task) for length, step, task in rows)
        selected = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
        report = build_report(manifest_of(selected), meta, bin_count=bins)
        table = report["task_timesteps"] or task_bin_counts(manifest_of(selected), meta, bins)
        assert report["timesteps"]["counts"] == np.sum(list(table.values()), axis=0).tolist()
        assert abs(sum(report["timesteps"]["normalized"]) - 1.0) <= 1e-12
        if report["tasks"] is not None:
            assert report["tasks"]["counts"] == {t: sum(row) for t, row in table.items()}
            assert abs(sum(report["tasks"]["fractions"].values()) - 1.0) <= 1e-12

    def test_sized_by_the_selected_tasks(self):
        # 2,000 labels, one selected row and the most bins: the table is one
        # task's row, not every label's (over 300 MiB if sized by them).
        n = 2_000
        meta = MetadataTable(np.arange(n), np.zeros(n, np.int64), np.ones(n, np.int64),
                             np.arange(n, dtype=np.int32), tuple(f"t{i:04d}" for i in range(n)))
        manifest = manifest_of([7])
        tracemalloc.start()
        try:
            table = task_bin_counts(manifest, meta, MAX_BINS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table == {"t0007": [1] + [0] * (MAX_BINS - 1)}
        assert peak < 2 * 2**20, peak / 2**20

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
    def build(self, labels=None, bin_count=10, **manifest_fields):
        meta = meta_rows(["a", "a", "b", None], episode_length=4)
        manifest = manifest_of(range(4), **manifest_fields)
        return build_report(manifest, meta, labels=labels, bin_count=bin_count)

    def test_round_trip_exact_numbers(self, tmp_path):
        labels = {"a": "relevant", "b": "mixed"}
        report = self.build(
            labels, bin_count=4, fingerprint="abc123", method=ScoreMethod.IWR
        )
        path = tmp_path / "report.json"
        emit_report(report, path)
        loaded = load_report(path)
        assert loaded == report
        assert loaded["config_fingerprint"] == "abc123"
        assert loaded["method"] == "iwr"
        assert loaded["tasks"]["fractions"]["a"] == 0.5
        assert loaded["timesteps"]["counts"] == [1, 1, 1, 1]
        assert loaded["timesteps"]["normalized"] == [0.25] * 4
        assert loaded["evaluation"]["precision"] == 0.5

    def test_manifest_without_method_reports_empty_method(self):
        report = self.build(fingerprint="f")
        assert report["config_fingerprint"] == "f"
        assert report["method"] == ""

    def test_evaluation_grades_the_labels(self):
        meta = meta_rows(["a", "a", "b", None, "b", "a"], episode_length=6)
        manifest = manifest_of([0, 2, 3])
        labels = {"a": "relevant", "b": "harmful"}
        report = build_report(manifest, meta, labels=labels)
        quality = evaluate_retrieval(manifest, row_relevance(meta, labels))
        assert report["evaluation"] == {
            "precision": quality.precision, "recall": quality.recall,
            "selected_count": 3, "relevant_count": 3,
        }
        assert quality.precision == 1 / 3 and quality.recall == 1 / 3
        assert build_report(manifest, meta)["evaluation"] is None
        assert build_report(manifest, meta, labels={})["evaluation"] is None

    def test_no_relevant_row_gives_null_recall(self, tmp_path):
        # Strict JSON: the report of labels that call no task relevant holds
        # null, not NaN.
        report = self.build({"a": "harmful", "b": "mixed"})
        assert report["evaluation"]["recall"] is None
        path = tmp_path / "report.json"
        emit_report(report, path)

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        strict = json.loads(path.read_text(), parse_constant=refuse)
        assert strict["evaluation"] == {
            "precision": 0.0, "recall": None, "selected_count": 4, "relevant_count": 0,
        }

    def test_histogram_only_when_no_labels(self, tmp_path):
        meta = meta_rows([None] * 4, episode_length=4)
        path = tmp_path / "report.json"
        emit_report(build_report(manifest_of(range(4)), meta, bin_count=2), path)
        report = load_report(path)
        assert report["tasks"] is None
        assert report["task_timesteps"] is None
        assert report["timesteps"]["counts"] == [2, 2]

    def test_unlabeled_selection_keeps_the_table(self):
        # No selected row has a task, but the metadata has: the tasks
        # section is null and the crossed table holds the unlabeled row.
        meta = meta_rows([None, None, "a", "a"], episode_length=4)
        report = build_report(manifest_of([0, 1]), meta, bin_count=2)
        assert report["tasks"] is None
        assert report["task_timesteps"] == {UNLABELED_TASK: [2, 0]}

    def test_emit_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(self.build(fingerprint="f"), a)
        emit_report(self.build(fingerprint="f"), b)
        assert a.read_bytes() == b.read_bytes()
