"""Turning a score vector into a retrieved subset.

Selection is deterministic: ties break by ascending prior index, threshold
selection is inclusive (``>=``), and manifests persist as sorted JSON so
reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from ._validation import (
    check_count,
    check_real,
    check_vector,
    coerce_fields,
    read_json_object,
    read_only,
    write_json,
)
from .dataset import EmbeddingDataset, gather_rows, pair_metadata
from .errors import ValidationError
from .scoring import ScoreMethod, ScoreVector
from ._version import __version__


class SelectionRule(str, Enum):
    FRACTION = "fraction"
    THRESHOLD = "threshold"
    RESAMPLE = "resample"


@dataclass(frozen=True, eq=False)
class RetrievalManifest:
    """The persisted result of a retrieval: which prior rows were selected.

    ``selected_indices`` is strictly increasing. ``multiplicities`` is only
    present for resampling with replacement and counts how often each unique
    index was drawn. ``method``, ``config_fingerprint`` and the source ids
    are those of the scores selected from; the ``select_*`` functions copy
    them from the score vector. The arrays are read-only: a writeable array
    passed in is copied, a read-only one held. Indices and multiplicities
    must be integers (no float or bool is truncated), and the other fields
    are of their annotated types.
    """

    selected_indices: np.ndarray
    scores_at_selection: np.ndarray
    rule: SelectionRule
    rule_param: float
    method: ScoreMethod
    config_fingerprint: str
    prior_source_id: str
    target_source_id: str
    multiplicities: Optional[np.ndarray] = None

    def __post_init__(self):
        idx = check_vector(self.selected_indices, "selected_indices", np.int64)
        if idx.size == 0:
            raise ValidationError("selection must be non-empty", code="empty_selection")
        if idx[0] < 0:
            raise ValidationError("negative prior index", code="index_out_of_range")
        if idx.size > 1 and not (np.diff(idx) > 0).all():
            raise ValidationError(
                "selected indices must be strictly increasing",
                code="unsorted_indices",
            )
        scores = check_vector(self.scores_at_selection, "scores_at_selection")
        if scores.shape != idx.shape:
            raise ValidationError(
                "scores_at_selection must align with selected_indices",
                code="bad_shape",
            )
        coerce_fields(self, "manifest field", ("rule", "rule_param", "method",
                                               "config_fingerprint", "prior_source_id",
                                               "target_source_id"))
        for name, arr in (("selected_indices", idx), ("scores_at_selection", scores)):
            object.__setattr__(self, name, read_only(arr, getattr(self, name)))
        if self.multiplicities is not None:
            mult = check_vector(self.multiplicities, "multiplicities", np.int64)
            if mult.shape != idx.shape or (mult < 1).any():
                raise ValidationError(
                    "multiplicities must align with selected_indices and be >= 1",
                    code="bad_shape",
                )
            mult = read_only(mult, self.multiplicities)
            object.__setattr__(self, "multiplicities", mult)

    @property
    def size(self) -> int:
        return int(self.selected_indices.shape[0])


def _manifest_from_indices(scores: ScoreVector, idx, rule, param, mult=None):
    """A manifest of the fresh int64 arrays ``idx`` and ``mult``, held as they
    are: ``read_only(arr, None)`` freezes an array that no caller holds."""
    return RetrievalManifest(
        read_only(idx, None), read_only(scores.values[idx], None), rule, param,
        scores.method, scores.config_fingerprint, scores.prior_source_id,
        scores.target_source_id, None if mult is None else read_only(mult, None))


def check_fraction(fraction: float) -> float:
    """``fraction`` as a float, refused unless it is a number in (0, 1]."""
    fraction = check_real(fraction, "fraction", "bad_fraction")
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(
            f"fraction must be in (0, 1], got {fraction}", code="bad_fraction"
        )
    return fraction


def fraction_count(fraction: float, rows: int) -> int:
    """``round(fraction * rows)``, half-up: the rows :func:`select_by_fraction`
    selects. A fraction outside (0, 1], or one that selects none, is refused."""
    k = int(np.floor(check_fraction(fraction) * rows + 0.5))
    if k == 0:
        raise ValidationError(
            f"fraction {fraction} of {rows} rows rounds to an empty selection",
            code="empty_selection",
        )
    return k


def select_by_fraction(scores: ScoreVector, fraction: float) -> RetrievalManifest:
    """Select the ``round(fraction * N)`` highest-scoring prior rows.

    Rounding is half-up; ties in score break by ascending prior index.
    """
    n = len(scores)
    k = fraction_count(fraction, n)
    # The k-th largest score; every higher one is chosen, and of the rows
    # tied at it, the lowest-indexed that fill the selection. One partition
    # copy of the scores, not three N-length arrays of a full sort.
    values = scores.values
    kth = np.partition(values, n - k)[n - k]
    chosen = values > kth
    tied = np.flatnonzero(values == kth)
    chosen[tied[: k - np.count_nonzero(chosen)]] = True
    return _manifest_from_indices(
        scores, np.flatnonzero(chosen), SelectionRule.FRACTION, fraction
    )


def select_by_threshold(scores: ScoreVector, threshold: float) -> RetrievalManifest:
    """Select every prior row whose score is >= ``threshold`` (inclusive)."""
    threshold = check_real(threshold, "threshold")
    chosen = np.flatnonzero(scores.values >= threshold)
    if chosen.size == 0:
        raise ValidationError(
            f"no scores reach threshold {threshold}", code="empty_selection"
        )
    return _manifest_from_indices(scores, chosen, SelectionRule.THRESHOLD, threshold)


def resample_by_weight(
    scores: ScoreVector,
    sample_count: int,
    rng_seed: int,
    with_replacement: bool = True,
) -> RetrievalManifest:
    """Draw prior rows with probability proportional to ``exp(score)``.

    Requires log-space scores (``kde_target`` or ``iwr``); the weights are
    self-normalized stably from log space. The manifest stores the sorted
    unique indices, with per-index draw counts when sampling with
    replacement.
    """
    if not scores.log_space:
        raise ValidationError(
            f"resampling needs log-space scores, got method "
            f"{scores.method.value!r}",
            code="non_log_space",
        )
    sample_count = check_count(sample_count, "sample_count")
    check_count(rng_seed, "rng_seed", minimum=0)
    n = len(scores)
    if not with_replacement and sample_count > n:
        raise ValidationError(
            f"sample_count {sample_count} exceeds {n} rows without replacement",
            code="bad_sample_count",
        )
    shifted = scores.values - scores.values.max()
    weights = np.exp(shifted)
    probs = weights / weights.sum()
    rng = np.random.default_rng(rng_seed)
    draws = rng.choice(n, size=sample_count, replace=with_replacement, p=probs)
    unique, counts = np.unique(draws, return_counts=True)
    return _manifest_from_indices(
        scores,
        unique,
        SelectionRule.RESAMPLE,
        sample_count,
        mult=counts if with_replacement else None,
    )


@dataclass(frozen=True)
class CotrainWeights:
    """Per-sample weights mixing target and retrieved data in co-training."""

    target_weight_per_sample: float
    retrieved_weight_per_sample: float
    alpha: float


def cotrain_weights(
    target_count: int, retrieved_count: int, alpha: float = 0.5
) -> CotrainWeights:
    """Weights ``alpha / |target|`` and ``(1 - alpha) / |retrieved|``."""
    target_count = check_count(target_count, "target_count")
    retrieved_count = check_count(retrieved_count, "retrieved_count")
    alpha = check_real(alpha, "alpha", "bad_alpha")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(
            f"alpha must be in (0, 1), got {alpha}", code="bad_alpha"
        )
    return CotrainWeights(alpha / target_count, (1.0 - alpha) / retrieved_count, alpha)


def materialize(manifest: RetrievalManifest, prior: EmbeddingDataset, prior_meta=None):
    """Extract the selected rows (and their rows of the paired
    ``MetadataTable``) in index order."""
    idx = manifest.selected_indices
    if idx[-1] >= prior.rows:
        raise ValidationError(
            f"selected index {int(idx[-1])} outside prior with {prior.rows} rows",
            code="index_out_of_range",
        )
    rows = gather_rows(prior.data, idx)
    rows.flags.writeable = False  # a fresh array: the dataset need not copy it
    retrieved = EmbeddingDataset(rows)
    if prior_meta is None:
        return retrieved, None
    return retrieved, pair_metadata(prior, prior_meta).take(idx)


# -- persistence --------------------------------------------------------------


def save_manifest(manifest: RetrievalManifest, path) -> None:
    payload = {
        "engine_version": __version__,
        "rule": manifest.rule.value,
        "method": manifest.method.value,
        "rule_param": manifest.rule_param,
        "config_fingerprint": manifest.config_fingerprint,
        "prior_source_id": manifest.prior_source_id,
        "target_source_id": manifest.target_source_id,
        "selected_indices": manifest.selected_indices.tolist(),
        "scores_at_selection": manifest.scores_at_selection.tolist(),
        "multiplicities": (
            None if manifest.multiplicities is None else manifest.multiplicities.tolist()
        ),
    }
    write_json(path, payload)


def load_manifest(path) -> RetrievalManifest:
    """Read a manifest back as a :class:`RetrievalManifest`, or refuse it
    with ``bad_manifest``, asking for a rerun of ``iwre retrieve``, when the
    file holds no valid one or lacks a key (``multiplicities`` may be
    absent)."""
    keys = ("selected_indices", "scores_at_selection", "rule", "rule_param",
            "method", "config_fingerprint", "prior_source_id", "target_source_id")
    payload = read_json_object(path, "bad_manifest")
    try:
        missing = [key for key in keys if key not in payload]
        if missing:
            raise ValidationError(f"missing keys {missing}")
        return RetrievalManifest(*(payload[key] for key in keys),
                                 payload.get("multiplicities"))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}; rerun `iwre retrieve`",
                              code="bad_manifest") from exc


def save_cotrain_weights(
    path, weights: CotrainWeights, target_count: int, manifest: RetrievalManifest
) -> None:
    """Write the per-sample weight table (role, index, weight) as CSV."""
    target_w = repr(weights.target_weight_per_sample)
    retrieved_w = repr(weights.retrieved_weight_per_sample)
    with open(path, "w") as fh:
        fh.write("role,index,weight\n")
        fh.writelines(f"target,{i},{target_w}\n" for i in range(target_count))
        fh.writelines(
            f"retrieved,{g},{retrieved_w}\n" for g in manifest.selected_indices.tolist()
        )
