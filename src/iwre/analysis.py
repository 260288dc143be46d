"""Retrieval-distribution diagnostics.

Summarizes a retrieval manifest against row metadata: how the selection
spreads over tasks (with user-supplied relevant/mixed/harmful labels) and
over within-episode time, binned proportionally so episodes of different
lengths are comparable.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from ._validation import check_count, read_json_object, write_json
from .dataset import MetadataTable
from .errors import ValidationError
from .retrieval import RetrievalManifest
from ._version import __version__

logger = logging.getLogger(__name__)

RELEVANCE_LEVELS = ("relevant", "mixed", "harmful")
UNLABELED_TASK = "(unlabeled)"
# Most time bins a report takes: each task's row of counts has that many
# cells, in memory and in report.json.
MAX_BINS = 10_000


def _check_relevance(labels: Mapping[str, str]) -> None:
    for task, level in labels.items():
        if level not in RELEVANCE_LEVELS:
            raise ValidationError(
                f"unknown relevance {level!r} for task {task!r}",
                code="bad_relevance",
            )


def load_labels(path) -> dict:
    """Read a JSON object mapping task labels to relevance levels."""
    labels = read_json_object(path, "bad_labels")
    _check_relevance(labels)
    return labels


@dataclass(frozen=True)
class TaskBreakdown:
    """Selected-row counts and fractions per task, with relevance labels."""

    per_task_counts: dict
    per_task_fractions: dict
    relevance_labels: dict


@dataclass(frozen=True, eq=False)
class TimestepHistogram:
    """Selected-row counts per proportional within-episode time bin."""

    bin_count: int
    counts: np.ndarray
    normalized: np.ndarray


def task_breakdown(
    manifest: RetrievalManifest,
    meta: MetadataTable,
    labels: Optional[Mapping[str, str]] = None,
) -> TaskBreakdown:
    """Count selected rows per task and attach relevance labels.

    Tasks selected but missing from ``labels`` default to ``harmful`` with
    a logged warning; ``labels=None`` means none were given, and every task
    is ``harmful`` without one. Rows without a task
    label group under ``"(unlabeled)"``; a selection with no labeled rows at
    all yields an empty breakdown.
    """
    if labels is not None:
        _check_relevance(labels)
    table = task_bin_counts(manifest, meta, 1)
    counts = {task: row[0] for task, row in table.items()}
    if (meta.task_code[manifest.selected_indices] < 0).all():
        return TaskBreakdown({}, {}, {})
    total = manifest.size
    fractions = {task: c / total for task, c in counts.items()}
    for task in counts if labels is not None else ():
        if task not in labels:
            logger.warning(
                "task %r has no relevance label; defaulting to 'harmful'", task
            )
    relevance = {task: (labels or {}).get(task, "harmful") for task in counts}
    return TaskBreakdown(counts, fractions, relevance)


def timestep_histogram(
    manifest: RetrievalManifest, meta: MetadataTable, bin_count: int = 10
) -> TimestepHistogram:
    """Histogram selected rows by proportional position within their episode.

    Bin assignment is ``floor(step_index * bin_count / episode_length)``,
    always in ``[0, bin_count)``.
    """
    table = task_bin_counts(manifest, meta, bin_count)
    counts = np.sum(list(table.values()), axis=0, dtype=np.int64)
    return TimestepHistogram(counts.size, counts, counts / manifest.size)


def task_bin_counts(
    manifest: RetrievalManifest, meta: MetadataTable, bin_count: int = 10
) -> dict:
    """Crossed per-task, per-bin selected counts.

    Lets external tooling apply segment-level relevance rules (e.g. "only
    the early portion of this task is useful") that neither marginal table
    can express. :func:`task_breakdown` and :func:`timestep_histogram` are
    its marginals. The counts are one ``bincount`` over task code x bin of
    the selected rows.
    """
    bin_count = check_count(bin_count, "bin_count", maximum=MAX_BINS)
    idx = manifest.selected_indices
    if idx[-1] >= len(meta):
        raise ValidationError(
            f"manifest selects row {int(idx[-1])} but "
            f"metadata has only {len(meta)} rows",
            code="metadata_mismatch",
        )
    steps, lengths = meta.step_index[idx], meta.episode_length[idx]
    if bin_count > np.iinfo(np.int64).max // int(lengths.max()):
        steps = steps.astype(object)  # step * bin_count would overflow int64
    bins = (steps * bin_count // lengths).astype(np.int64)
    names = (UNLABELED_TASK,) + meta.task_labels
    cells = (meta.task_code[idx].astype(np.int64) + 1) * bin_count + bins
    counts = np.bincount(cells, minlength=len(names) * bin_count)
    table: dict[str, list] = {}
    for name, row in zip(names, counts.reshape(len(names), bin_count).tolist()):
        if any(row):  # a task labelled "(unlabeled)" shares the unlabeled row
            table[name] = [a + b for a, b in zip(table.get(name, [0] * bin_count), row)]
    return table


def emit_report(
    breakdown: TaskBreakdown,
    histogram: TimestepHistogram,
    path,
    *,
    fingerprint: str = "",
    method: str = "",
    evaluation: Optional[dict] = None,
    task_bins: Optional[dict] = None,
) -> None:
    """Write the diagnostics report as stable, sectioned JSON.

    Schema: ``engine_version``, ``config_fingerprint``, ``method``, a
    ``tasks`` section (null when no rows carry task labels) with
    ``counts`` / ``fractions`` / ``relevance`` keyed by task, a
    ``timesteps`` section with ``bin_count`` / ``counts`` / ``normalized``,
    an optional crossed ``task_timesteps`` table, and an optional
    ``evaluation`` section (e.g. precision/recall against ground truth).
    """
    tasks_section = None
    if breakdown.per_task_counts:
        tasks_section = {
            "counts": breakdown.per_task_counts,
            "fractions": breakdown.per_task_fractions,
            "relevance": breakdown.relevance_labels,
        }
    payload = {
        "engine_version": __version__,
        "config_fingerprint": fingerprint,
        "method": method,
        "tasks": tasks_section,
        "timesteps": {
            "bin_count": histogram.bin_count,
            "counts": histogram.counts.tolist(),
            "normalized": histogram.normalized.tolist(),
        },
        "task_timesteps": task_bins,
        "evaluation": evaluation,
    }
    write_json(path, payload)


def load_report(path) -> dict:
    """Parse an emitted report back into a dict (exact float round-trip)."""
    return json.loads(Path(path).read_text())
