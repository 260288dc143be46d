"""Turning a score vector into a retrieved subset.

Selection is deterministic: ties break by ascending prior index, threshold
selection is inclusive (``>=``), and manifests persist as sorted JSON so
reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._validation import check_count, read_json_object
from .dataset import EmbeddingDataset, RowMetadata, gather_rows, pair_metadata
from .errors import ValidationError
from .scoring import ScoreVector
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
    index was drawn.
    """

    selected_indices: np.ndarray
    scores_at_selection: np.ndarray
    rule: SelectionRule
    rule_param: float
    config_fingerprint: str
    prior_source_id: str = ""
    target_source_id: str = ""
    multiplicities: Optional[np.ndarray] = None

    def __post_init__(self):
        idx = np.asarray(self.selected_indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValidationError("selection must be non-empty", code="empty_selection")
        if idx[0] < 0:
            raise ValidationError("negative prior index", code="index_out_of_range")
        if idx.size > 1 and not (np.diff(idx) > 0).all():
            raise ValidationError(
                "selected indices must be strictly increasing",
                code="unsorted_indices",
            )
        scores = np.asarray(self.scores_at_selection, dtype=np.float64)
        if scores.shape != idx.shape:
            raise ValidationError(
                "scores_at_selection must align with selected_indices",
                code="bad_shape",
            )
        idx.flags.writeable = False
        scores.flags.writeable = False
        object.__setattr__(self, "selected_indices", idx)
        object.__setattr__(self, "scores_at_selection", scores)
        object.__setattr__(self, "rule", SelectionRule(self.rule))
        if self.multiplicities is not None:
            mult = np.asarray(self.multiplicities, dtype=np.int64)
            if mult.shape != idx.shape or (mult < 1).any():
                raise ValidationError(
                    "multiplicities must align with selected_indices and be >= 1",
                    code="bad_shape",
                )
            mult.flags.writeable = False
            object.__setattr__(self, "multiplicities", mult)

    @property
    def size(self) -> int:
        return int(self.selected_indices.shape[0])


def _manifest_from_indices(scores: ScoreVector, idx, rule, param, mult=None):
    idx = np.asarray(idx, dtype=np.int64)
    return RetrievalManifest(
        idx,
        scores.values[idx],
        rule,
        float(param),
        scores.config_fingerprint,
        prior_source_id=scores.prior_source_id,
        target_source_id=scores.target_source_id,
        multiplicities=mult,
    )


def select_by_fraction(scores: ScoreVector, fraction: float) -> RetrievalManifest:
    """Select the ``round(fraction * N)`` highest-scoring prior rows.

    Rounding is half-up; ties in score break by ascending prior index.
    """
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(
            f"fraction must be in (0, 1], got {fraction}", code="bad_fraction"
        )
    n = len(scores)
    k = int(np.floor(fraction * n + 0.5))
    if k == 0:
        raise ValidationError(
            f"fraction {fraction} of {n} rows rounds to an empty selection",
            code="empty_selection",
        )
    order = np.lexsort((np.arange(n), -scores.values))
    chosen = np.sort(order[:k])
    return _manifest_from_indices(scores, chosen, SelectionRule.FRACTION, fraction)


def select_by_threshold(scores: ScoreVector, threshold: float) -> RetrievalManifest:
    """Select every prior row whose score is >= ``threshold`` (inclusive)."""
    threshold = float(threshold)
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
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(
            f"alpha must be in (0, 1), got {alpha}", code="bad_alpha"
        )
    return CotrainWeights(alpha / target_count, (1.0 - alpha) / retrieved_count, alpha)


def materialize(
    manifest: RetrievalManifest,
    prior: EmbeddingDataset,
    prior_meta: Optional[Sequence[RowMetadata]] = None,
):
    """Extract the selected rows (and paired metadata) in index order."""
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
    pair_metadata(prior, prior_meta)
    return retrieved, [prior_meta[i] for i in idx]


# -- persistence --------------------------------------------------------------


def save_manifest(manifest: RetrievalManifest, path) -> None:
    payload = {
        "engine_version": __version__,
        "rule": manifest.rule.value,
        "rule_param": manifest.rule_param,
        "config_fingerprint": manifest.config_fingerprint,
        "prior_source_id": manifest.prior_source_id,
        "target_source_id": manifest.target_source_id,
        "selected_indices": [int(i) for i in manifest.selected_indices],
        "scores_at_selection": [float(s) for s in manifest.scores_at_selection],
        "multiplicities": (
            None
            if manifest.multiplicities is None
            else [int(m) for m in manifest.multiplicities]
        ),
    }
    # Streamed: ``dumps`` would hold every encoded chunk of the index list.
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_manifest(path) -> RetrievalManifest:
    payload = read_json_object(
        path,
        "bad_manifest",
        ("selected_indices", "scores_at_selection", "rule", "rule_param",
         "config_fingerprint"),
    )
    return RetrievalManifest(
        np.asarray(payload["selected_indices"], dtype=np.int64),
        np.asarray(payload["scores_at_selection"], dtype=np.float64),
        SelectionRule(payload["rule"]),
        float(payload["rule_param"]),
        payload["config_fingerprint"],
        prior_source_id=payload.get("prior_source_id", ""),
        target_source_id=payload.get("target_source_id", ""),
        multiplicities=(
            None
            if payload.get("multiplicities") is None
            else np.asarray(payload["multiplicities"], dtype=np.int64)
        ),
    )


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
