"""Selection rules, resampling, co-training weights, manifests."""

import json
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import JSON_VALUES, metadata_table, ranking, score_vector
from iwre import retrieval
from iwre._validation import read_only
from iwre.dataset import EmbeddingDataset, MetadataTable
from iwre.errors import ValidationError
from iwre.retrieval import (
    RetrievalManifest,
    SelectionRule,
    check_fraction,
    cotrain_weights,
    load_manifest,
    materialize,
    resample_by_weight,
    save_cotrain_weights,
    save_manifest,
    select_by_fraction,
    select_by_threshold,
)
from iwre.retriever import EmbeddingRetriever
from iwre.scoring import ScoreMethod, ScoreVector, ScoringConfig


# A manifest's method, fingerprint, prior id and target id, in field order.
PROVENANCE = ("iwr", "fp", "p", "t")


def make_scores(values, method=ScoreMethod.IWR):
    return score_vector(np.asarray(values, dtype=float), method)


def assert_round_trip(manifest, tmp_path) -> RetrievalManifest:
    """Save ``manifest`` and load it back: every field must come back equal
    and of its type, and saving what was loaded must give the same bytes."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_manifest(manifest, first)
    back = load_manifest(first)
    for f in fields(RetrievalManifest):
        ours, theirs = getattr(manifest, f.name), getattr(back, f.name)
        assert type(theirs) is type(ours), f.name
        if isinstance(ours, np.ndarray):
            assert theirs.dtype == ours.dtype and np.array_equal(theirs, ours), f.name
        else:
            assert theirs == ours, f.name
    save_manifest(back, second)
    assert second.read_bytes() == first.read_bytes()
    return back


class TestSelectByFraction:
    def test_hand_sortable(self):
        scores = make_scores([5, 1, 3, 2, 4, 0, 9, 8, 7, 6])
        manifest = select_by_fraction(scores, 0.3)
        assert manifest.selected_indices.tolist() == [6, 7, 8]
        assert manifest.scores_at_selection.tolist() == [9.0, 8.0, 7.0]
        assert manifest.rule is SelectionRule.FRACTION

    def test_full_fraction_selects_all(self):
        manifest = select_by_fraction(make_scores([1.0, 2.0, 3.0]), 1.0)
        assert manifest.selected_indices.tolist() == [0, 1, 2]

    def test_robomimic_shaped_count(self):
        rng = np.random.default_rng(0)
        manifest = select_by_fraction(make_scores(rng.standard_normal(400)), 0.3)
        assert manifest.size == 120

    def test_ties_break_by_ascending_index(self):
        manifest = select_by_fraction(make_scores([1.0, 1.0, 1.0, 1.0]), 0.5)
        assert manifest.selected_indices.tolist() == [0, 1]

    def test_rounding_half_up(self):
        assert select_by_fraction(make_scores(np.arange(10.0)), 0.25).size == 3
        assert select_by_fraction(make_scores(np.arange(10.0)), 0.05).size == 1

    def test_empty_selection_rejected(self):
        with pytest.raises(ValidationError) as exc:
            select_by_fraction(make_scores(np.arange(10.0)), 0.04)
        assert exc.value.code == "empty_selection"

    def test_fraction_bounds(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError) as exc:
                select_by_fraction(make_scores([1.0]), bad)
            assert exc.value.code == "bad_fraction"

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(200)
        base = select_by_fraction(make_scores(values), 0.25).selected_indices
        for transform in (np.exp, lambda v: 3.0 * v + 7.0, np.arctan):
            same = select_by_fraction(
                make_scores(transform(values)), 0.25
            ).selected_indices
            assert np.array_equal(base, same)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 3.0]),
                        min_size=1, max_size=60),
        fraction=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_matches_full_sort(self, values, fraction):
        # Many ties: the same rows as a full lexsort, ties by ascending index.
        k = int(np.floor(fraction * len(values) + 0.5))
        assume(k > 0)
        expected = np.sort(ranking(np.asarray(values))[:k])
        got = select_by_fraction(make_scores(values), fraction).selected_indices
        assert got.tolist() == expected.tolist()

    def test_memory_is_one_copy_of_the_scores(self):
        # Bound fixed before measuring: selecting 100,000 of 1M scores peaks
        # under 1.25x the score vector (a full lexsort held about 2.9x).
        scores = make_scores(np.random.default_rng(3).standard_normal(1_000_000))
        tracemalloc.start()
        try:
            select_by_fraction(scores, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * scores.values.nbytes, peak / scores.values.nbytes

    def test_nesting(self):
        rng = np.random.default_rng(9)
        scores = make_scores(rng.standard_normal(500))
        previous = set()
        for fraction in (0.2, 0.3, 0.5, 0.6):
            selected = set(select_by_fraction(scores, fraction).selected_indices)
            assert previous <= selected
            previous = selected


class TestSelectByThreshold:
    def test_boundary_inclusive(self):
        manifest = select_by_threshold(make_scores([-1.0, -2.0, -3.0]), -2.0)
        assert manifest.selected_indices.tolist() == [0, 1]

    def test_below_min_selects_all(self):
        manifest = select_by_threshold(make_scores([-1.0, -2.0, -3.0]), -10.0)
        assert manifest.size == 3

    def test_above_max_rejected(self):
        with pytest.raises(ValidationError) as exc:
            select_by_threshold(make_scores([0.0, 1.0]), 2.0)
        assert exc.value.code == "empty_selection"

    def test_quantile_threshold_reproduces_fraction(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal(400)  # continuous: distinct with prob. 1
        scores = make_scores(values)
        by_fraction = select_by_fraction(scores, 0.3)
        kth_largest = np.sort(values)[-by_fraction.size]
        by_threshold = select_by_threshold(scores, kth_largest)
        assert np.array_equal(
            by_fraction.selected_indices, by_threshold.selected_indices
        )

    def test_nn_rule_equivalence(self):
        """Threshold -zeta on nn scores selects min-squared-distance <= zeta."""
        rng = np.random.default_rng(3)
        target = rng.standard_normal((30, 2))
        prior = rng.standard_normal((100, 2))
        scores = ScoringConfig(ScoreMethod.NN_L2).score(target, prior)
        zeta = 0.25
        manifest = select_by_threshold(scores, -zeta)
        dmin = ((prior[:, None, :] - target[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        want = np.flatnonzero(dmin <= zeta)
        assert np.array_equal(manifest.selected_indices, want)


class TestResample:
    def test_uniform_exhaustive_without_replacement(self):
        scores = make_scores(np.zeros(10))
        manifest = resample_by_weight(scores, 10, rng_seed=0, with_replacement=False)
        assert manifest.selected_indices.tolist() == list(range(10))
        assert manifest.multiplicities is None

    def test_requires_log_space(self):
        with pytest.raises(ValidationError) as exc:
            resample_by_weight(make_scores([-1.0], ScoreMethod.NN_L2), 1, 0)
        assert exc.value.code == "non_log_space"

    def test_sample_count_bound_without_replacement(self):
        with pytest.raises(ValidationError) as exc:
            resample_by_weight(make_scores(np.zeros(3)), 4, 0, with_replacement=False)
        assert exc.value.code == "bad_sample_count"

    def test_sample_count_bound_counts_non_zero_weights(self):
        # Half the prior lies 40 units off the target: exp underflows their
        # weights to 0, so only 200 rows can be drawn without replacement.
        rng = np.random.default_rng(0)
        target = rng.standard_normal((50, 2))
        prior = np.vstack([rng.standard_normal((200, 2)),
                           rng.standard_normal((200, 2)) + 40.0])
        scores = ScoringConfig(ScoreMethod.KDE_TARGET, scale_c=0.5).score(target, prior)
        with pytest.raises(ValidationError, match="the 200 of 400 rows") as exc:
            resample_by_weight(scores, 300, 0, with_replacement=False)
        assert exc.value.code == "bad_sample_count"
        manifest = resample_by_weight(scores, 200, 0, with_replacement=False)
        assert manifest.selected_indices.tolist() == list(range(200))

    def test_negative_seed(self):
        with pytest.raises(ValidationError) as exc:
            resample_by_weight(make_scores(np.zeros(3)), 2, rng_seed=-1)
        assert exc.value.code == "bad_param"

    def test_same_seed_identical_manifest(self):
        scores = make_scores(np.linspace(-1, 1, 50))
        a = resample_by_weight(scores, 30, rng_seed=11)
        b = resample_by_weight(scores, 30, rng_seed=11)
        assert np.array_equal(a.selected_indices, b.selected_indices)
        assert np.array_equal(a.multiplicities, b.multiplicities)

    def test_multiplicities_total_draw_count(self):
        scores = make_scores(np.linspace(0, 1, 20))
        manifest = resample_by_weight(scores, 500, rng_seed=2)
        assert manifest.multiplicities.sum() == 500
        assert manifest.rule is SelectionRule.RESAMPLE

    def test_two_point_frequency(self):
        scores = make_scores([np.log(3.0), 0.0])
        manifest = resample_by_weight(scores, 100_000, rng_seed=42)
        counts = dict(
            zip(manifest.selected_indices.tolist(), manifest.multiplicities.tolist())
        )
        assert abs(counts[0] / 100_000 - 0.75) <= 0.007  # ~5 sigma

    def test_extreme_log_weights_stay_stable(self):
        scores = make_scores([-1000.0, -1001.0, -5000.0])
        manifest = resample_by_weight(scores, 100, rng_seed=0)
        assert set(manifest.selected_indices.tolist()) <= {0, 1, 2}

    def test_snis_weighted_mean_unbiased(self):
        """Analytic log-ratio weights re-center prior draws on the target mean."""
        rng = np.random.default_rng(19)
        z = 2.0 * rng.standard_normal(100_000)  # prior N(0, 4)
        log_ratio = -(z**2) / 2.0 + (z**2) / 8.0 + np.log(2.0)  # log N(0,1)/N(0,4)
        w = np.exp(log_ratio - log_ratio.max())
        wn = w / w.sum()
        mean = wn @ z
        se = np.sqrt(np.sum(wn**2 * (z - mean) ** 2))
        assert abs(mean - 0.0) <= 3.0 * se


class TestLibraryScalars:
    # A value that float() would change (or a bool) is refused with the
    # code of the value it stands for, never a bare ValueError.
    @pytest.mark.parametrize("call, code", [
        (lambda s: select_by_threshold(s, "x"), "bad_param"),
        (lambda s: select_by_threshold(s, float("nan")), "bad_param"),
        (lambda s: select_by_fraction(s, "0.5"), "bad_fraction"),
        (lambda s: select_by_fraction(s, True), "bad_fraction"),
        (lambda s: check_fraction(None), "bad_fraction"),
        (lambda s: cotrain_weights(3, 4, "x"), "bad_alpha"),
        (lambda s: cotrain_weights(3, 4, [0.5]), "bad_alpha"),
        (lambda s: EmbeddingRetriever("nn_l2", fraction="x").fit(np.zeros((3, 2)))
         .transform(-np.ones((5, 2))), "bad_fraction"),
    ], ids=["threshold_string", "threshold_nan", "fraction_string", "fraction_bool",
            "fraction_none", "alpha_string", "alpha_list", "retriever_fraction"])
    def test_refused_with_its_code(self, call, code):
        with pytest.raises(ValidationError) as exc:
            call(make_scores(np.linspace(0, 1, 10)))
        assert exc.value.code == code


class TestCotrainWeights:
    def test_reference_values(self):
        w = cotrain_weights(10, 30, 0.5)
        assert w.target_weight_per_sample == 0.05
        assert w.retrieved_weight_per_sample == pytest.approx(1 / 60, rel=1e-15)

    def test_equal_counts_equal_weights(self):
        w = cotrain_weights(25, 25, 0.5)
        assert w.target_weight_per_sample == w.retrieved_weight_per_sample

    def test_default_alpha_is_half(self):
        assert cotrain_weights(10, 30).alpha == 0.5

    def test_totals_reconstruct_alpha(self):
        for t, r, alpha in ((10, 30, 0.5), (7, 13, 0.25), (3, 1000, 0.9)):
            w = cotrain_weights(t, r, alpha)
            assert abs(w.target_weight_per_sample * t - alpha) <= 1e-12
            assert abs(w.retrieved_weight_per_sample * r - (1 - alpha)) <= 1e-12
            total = w.target_weight_per_sample * t + w.retrieved_weight_per_sample * r
            assert abs(total - 1.0) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            cotrain_weights(0, 10, 0.5)
        with pytest.raises(ValidationError):
            cotrain_weights(10, 0, 0.5)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError) as exc:
                cotrain_weights(1, 1, alpha)
            assert exc.value.code == "bad_alpha"

    def test_weight_file_sums_to_one(self, tmp_path):
        scores = make_scores(np.arange(10.0))
        manifest = select_by_fraction(scores, 0.3)
        w = cotrain_weights(5, manifest.size, 0.5)
        path = tmp_path / "weights.csv"
        save_cotrain_weights(path, w, 5, manifest)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "role,index,weight"
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert abs(total - 1.0) <= 1e-12


class TestMaterialize:
    def test_selected_rows_in_order(self):
        prior = EmbeddingDataset(np.arange(8.0).reshape(4, 2))
        manifest = RetrievalManifest(
            np.array([1, 3]), np.zeros(2), SelectionRule.FRACTION, 0.5, *PROVENANCE
        )
        out, meta = materialize(manifest, prior)
        assert meta is None
        np.testing.assert_array_equal(out.data, prior.data[[1, 3]])

    def test_full_selection_is_identity(self):
        prior = EmbeddingDataset(np.arange(8.0).reshape(4, 2))
        manifest = RetrievalManifest(
            np.arange(4), np.zeros(4), SelectionRule.FRACTION, 1.0, *PROVENANCE
        )
        out, _ = materialize(manifest, prior)
        np.testing.assert_array_equal(out.data, prior.data)

    def test_metadata_subset(self):
        prior = EmbeddingDataset(np.arange(8.0).reshape(4, 2))
        meta = metadata_table((0, i, 4, f"t{i}") for i in range(4))
        manifest = RetrievalManifest(
            np.array([0, 2]), np.zeros(2), SelectionRule.THRESHOLD, 0.0, *PROVENANCE
        )
        _, sub = materialize(manifest, prior, meta)
        assert [sub.task_labels[code] for code in sub.task_code] == ["t0", "t2"]

    def test_index_out_of_range(self):
        prior = EmbeddingDataset(np.zeros((2, 2)) + np.arange(2)[:, None])
        manifest = RetrievalManifest(
            np.array([5]), np.zeros(1), SelectionRule.THRESHOLD, 0.0, *PROVENANCE
        )
        with pytest.raises(ValidationError) as exc:
            materialize(manifest, prior)
        assert exc.value.code == "index_out_of_range"

    def test_metadata_count_mismatch(self):
        prior = EmbeddingDataset(np.zeros((3, 1)) + np.arange(3)[:, None])
        manifest = RetrievalManifest(
            np.array([0]), np.zeros(1), SelectionRule.THRESHOLD, 0.0, *PROVENANCE
        )
        with pytest.raises(ValidationError) as exc:
            materialize(manifest, prior, metadata_table([(0, 0, 1, None)]))
        assert exc.value.code == "row_count_mismatch"


class TestManifest:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError) as exc:
            RetrievalManifest(
                np.array([], dtype=np.int64),
                np.array([]),
                SelectionRule.FRACTION,
                0.1,
                *PROVENANCE,
            )
        assert exc.value.code == "empty_selection"

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError) as exc:
            RetrievalManifest(
                np.array([3, 1]), np.zeros(2), SelectionRule.FRACTION, 0.5, *PROVENANCE
            )
        assert exc.value.code == "unsorted_indices"

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            RetrievalManifest(
                np.array([-1, 2]), np.zeros(2), SelectionRule.FRACTION, 0.5, *PROVENANCE
            )

    @pytest.mark.parametrize("scores, mult", [
        (np.zeros(3), None),
        (np.zeros(2), np.ones(3, int)),
        (np.zeros(2), np.array([1, 0])),
    ], ids=["misaligned_scores", "misaligned_multiplicities", "multiplicity_zero"])
    def test_rejects_bad_shape(self, scores, mult):
        with pytest.raises(ValidationError) as exc:
            RetrievalManifest(np.array([1, 4]), scores, SelectionRule.RESAMPLE, 2,
                              *PROVENANCE, multiplicities=mult)
        assert exc.value.code == "bad_shape"

    # Indices and multiplicities are integers: a float, even an integral
    # one, or a bool is refused, not truncated.
    @pytest.mark.parametrize("indices, mult", [
        ([0.7, 2.2], None),
        ([0.0, 2.0], None),
        ([True, 2], None),
        (np.array([0.7, 2.2]), None),
        (np.array([True, False]), None),
        ([0, 2], [1.9, 1.2]),
        ([0, 2], np.ones(2)),
        ([0, 2], [True, 2]),
        ([0.7, 2.2], [1.9, 1.2]),
    ], ids=["float_indices", "integral_float_indices", "bool_indices",
            "float_index_array", "bool_index_array", "float_multiplicities",
            "integral_float_multiplicity_array", "bool_multiplicities",
            "floats_in_both"])
    def test_refuses_non_integers(self, indices, mult):
        with pytest.raises(ValidationError) as exc:
            RetrievalManifest(indices, [1.0, 2.0], "fraction", 0.5, *PROVENANCE,
                              multiplicities=mult)
        assert exc.value.code == "malformed_value"

    @pytest.mark.parametrize("change", [
        {"rule_param": float("nan")},
        {"rule_param": "0.5"},
        {"rule_param": True},
        {"scores_at_selection": [1.0, float("nan")]},
        {"scores_at_selection": ["1", "2"]},
        {"config_fingerprint": 7},
        {"prior_source_id": None},
        {"target_source_id": b"t"},
        {"rule": "bogus"},
        {"method": "bogus"},
        {"method": ["iwr"]},
        {"method": None},
        {"selected_indices": [[1], [2, 3]]},
        {"selected_indices": [2**70, 2**71]},
    ], ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()))
    def test_refuses_a_bad_value(self, change):
        args = {"selected_indices": [0, 2], "scores_at_selection": [1.0, 2.0],
                "rule": "fraction", "rule_param": 0.5, "method": "iwr",
                "config_fingerprint": "fp", "prior_source_id": "p",
                "target_source_id": "t", **change}
        with pytest.raises(ValidationError):
            RetrievalManifest(**args)

    def test_caller_arrays_stay_writeable_and_unshared(self):
        idx, scores, mult = np.array([1, 4, 7]), np.array([.5, .2, .1]), np.ones(3, int)
        m = RetrievalManifest(idx, scores, "fraction", .3, *PROVENANCE,
                              multiplicities=mult)
        assert m.selected_indices is not idx
        for given in (idx, scores, mult):
            assert given.flags.writeable
            given[0] = 0
        assert m.selected_indices.tolist() == [1, 4, 7]
        assert m.scores_at_selection.tolist() == [.5, .2, .1]
        assert m.multiplicities.tolist() == [1, 1, 1]
        for held in (m.selected_indices, m.scores_at_selection, m.multiplicities):
            assert not held.flags.writeable

    def test_read_only_arrays_are_held(self):
        idx, scores = np.array([1, 4, 7]), np.array([.5, .2, .1])
        idx.flags.writeable = scores.flags.writeable = False
        m = RetrievalManifest(idx, scores, "fraction", .3, *PROVENANCE)
        assert m.selected_indices is idx and m.scores_at_selection is scores

    def test_selections_and_loads_copy_no_array(self, tmp_path, monkeypatch):
        copied = []

        def spy(arr, given):
            held = read_only(arr, given)
            if given is not None:  # a manifest taking over its arguments
                copied.append(held is not arr)
            return held

        monkeypatch.setattr(retrieval, "read_only", spy)
        scores = make_scores(np.linspace(-2, 2, 25))
        save_manifest(select_by_fraction(scores, 0.2), tmp_path / "a.json")
        save_manifest(resample_by_weight(scores, 40, 3), tmp_path / "b.json")
        select_by_threshold(scores, 0.0)
        load_manifest(tmp_path / "a.json")
        load_manifest(tmp_path / "b.json")
        assert len(copied) == 12 and not any(copied)

    def test_round_trip(self, tmp_path):
        scores = make_scores(np.linspace(-2, 2, 25))
        manifest = select_by_fraction(scores, 0.2)
        assert manifest.multiplicities is None
        back = assert_round_trip(manifest, tmp_path)
        assert back.rule is SelectionRule.FRACTION and back.rule_param == 0.2
        assert back.method is manifest.method is ScoreMethod.IWR
        assert (back.prior_source_id, back.target_source_id) == (
            scores.prior_source_id, scores.target_source_id)

    @pytest.mark.parametrize("method", list(ScoreMethod))
    def test_selection_records_method(self, method):
        scores = make_scores(-np.linspace(0, 2, 10), method)
        assert select_by_fraction(scores, 0.3).method is method
        assert select_by_threshold(scores, -1.0).method is method

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("method"), lambda d: d.update(method=None),
        lambda d: d.pop("prior_source_id"), lambda d: d.pop("target_source_id"),
        lambda d: d.update(target_source_id=None),
    ], ids=["missing_method", "null_method", "missing_prior_id",
            "missing_target_id", "null_target_id"])
    def test_manifest_without_provenance_is_refused(self, tmp_path, edit):
        path = tmp_path / "manifest.json"
        save_manifest(select_by_fraction(make_scores(np.arange(5.0)), 0.4), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError) as exc:
            load_manifest(path)
        assert exc.value.code == "bad_manifest" and "iwre retrieve" in str(exc.value)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_manifest_value_is_read_or_refused(self, data):
        scores = make_scores(np.linspace(0, 1, 10))
        manifest = data.draw(st.sampled_from([
            select_by_fraction(scores, 0.5), resample_by_weight(scores, 40, 3),
        ]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.json"
            save_manifest(manifest, path)
            payload = json.loads(path.read_text())
            key = data.draw(st.sampled_from(sorted(payload)))
            payload[key] = data.draw(JSON_VALUES)
            path.write_text(json.dumps(payload))
            try:
                back = load_manifest(path)
            except ValidationError as exc:
                assert exc.code == "bad_manifest"
                return
        assert isinstance(back, RetrievalManifest)
        assert back.selected_indices.dtype == np.int64
        assert np.isfinite(back.scores_at_selection).all()
        assert back.multiplicities is None or back.multiplicities.dtype == np.int64

    def test_round_trip_with_multiplicities(self, tmp_path):
        scores = make_scores(np.linspace(0, 1, 10))
        manifest = resample_by_weight(scores, 40, 3)
        back = assert_round_trip(manifest, tmp_path)
        assert back.rule is SelectionRule.RESAMPLE and back.multiplicities.sum() == 40
        assert (back.prior_source_id, back.target_source_id) == (
            scores.prior_source_id, scores.target_source_id)

    def test_save_is_deterministic(self, tmp_path):
        manifest = select_by_fraction(make_scores(np.linspace(0, 1, 10)), 0.5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_manifest(manifest, a)
        save_manifest(manifest, b)
        assert a.read_bytes() == b.read_bytes()


# A valid record of each type, as keyword arguments.
VALID_RECORDS = {
    RetrievalManifest: {
        "selected_indices": [1, 4], "scores_at_selection": [0.5, 0.25],
        "rule": "resample", "rule_param": 2.0, "config_fingerprint": "fp",
        "prior_source_id": "p", "target_source_id": "t", "multiplicities": [1, 3],
        "method": "iwr",
    },
    ScoreVector: {
        "values": [-1.0, -2.0],
        "params": dict(score_vector([0.0], ScoreMethod.NN_L2).params),
    },
    MetadataTable: {
        "episode_id": [0, 0], "step_index": [0, 1], "episode_length": [2, 2],
        "task_code": [0, -1], "task_labels": ("a",),
    },
}
INTEGER_FIELDS = {"selected_indices", "multiplicities", "episode_id", "step_index",
                  "episode_length", "task_code"}
# Floats, bools and ragged arrays, which JSON_VALUES does not make.
ODD_ARRAYS = [np.array([0.5, 4.0]), np.array([1.0, 4.0]), np.array([True, False]),
              np.array([[1], [2, 3]], dtype=object), [[1], [2, 3]], [True, 4]]


def assert_valid(record):
    """``record``'s fields hold the types its class promises."""
    if isinstance(record, RetrievalManifest):
        assert record.selected_indices.dtype == np.int64
        assert record.scores_at_selection.dtype == np.float64
        assert np.isfinite(record.scores_at_selection).all()
        assert isinstance(record.rule, SelectionRule)
        assert type(record.rule_param) is float and np.isfinite(record.rule_param)
        assert isinstance(record.method, ScoreMethod)
        assert record.multiplicities is None or record.multiplicities.dtype == np.int64
    elif isinstance(record, ScoreVector):
        assert record.values.dtype == np.float64 and np.isfinite(record.values).all()
        assert isinstance(record.method, ScoreMethod)
        assert record.params["method"] == record.method.value
        assert record.params["prior_source_id"] == record.prior_source_id
        assert record.params["target_source_id"] == record.target_source_id
    else:
        columns = [getattr(record, name) for name in sorted(INTEGER_FIELDS)
                   if hasattr(record, name)]
        assert all(c.dtype.kind == "i" and c.shape == (len(record),) for c in columns)
        assert all(isinstance(label, str) for label in record.task_labels)
    for name in ("config_fingerprint", "prior_source_id", "target_source_id"):
        assert isinstance(getattr(record, name, ""), str)


class TestRecordsCheckTheirValues:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_argument_makes_a_valid_record_or_is_refused(self, data):
        cls = data.draw(st.sampled_from(list(VALID_RECORDS)))
        args = dict(VALID_RECORDS[cls])
        name = data.draw(st.sampled_from(sorted(args)))
        value = data.draw(JSON_VALUES | st.floats() | st.booleans()
                          | st.sampled_from(ODD_ARRAYS))
        args[name] = value
        try:
            record = cls(**args)
        except ValidationError:
            return
        assert_valid(record)
        if name in INTEGER_FIELDS and value is not None:
            # Only integers are taken, as they are: none is truncated.
            leaves = np.array(value, dtype=object).ravel()
            assert all(type(v) is int for v in leaves)
            assert getattr(record, name).tolist() == np.array(value).tolist()

    @pytest.mark.parametrize("cls", list(VALID_RECORDS), ids=lambda c: c.__name__)
    def test_valid_records_are_valid(self, cls):
        assert_valid(cls(**VALID_RECORDS[cls]))
