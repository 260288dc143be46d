"""Retrieval-distribution diagnostics.

Summarizes a retrieval manifest against row metadata: how the selection
spreads over tasks (with user-supplied relevant/mixed/harmful labels) and
over within-episode time, binned proportionally so episodes of different
lengths are comparable.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from ._validation import check_count, read_json_object, write_json
from .dataset import MetadataTable
from .errors import ValidationError
from .retrieval import RetrievalManifest
from .synthbench import evaluate_retrieval, row_relevance
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


def task_bin_counts(
    manifest: RetrievalManifest, meta: MetadataTable, bin_count: int = 10
) -> dict:
    """Crossed per-task, per-bin selected counts.

    Lets external tooling apply segment-level relevance rules (e.g. "only
    the early portion of this task is useful") that neither marginal can
    express; :func:`build_report`'s task and timestep counts are its row
    and column sums. The counts are one ``bincount`` over the selected
    rows' distinct task codes x bin, so the table is sized by the tasks
    selected, not by every label of ``meta``; finding those tasks takes one
    pass over the selected rows and one over the labels, with no sort. Bin
    assignment is ``floor(step_index * bin_count / episode_length)``,
    always in ``[0, bin_count)``.
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
    bins = (steps * bin_count // lengths).astype(np.int64, copy=False)
    cells = meta.task_code[idx].astype(np.intp)
    cells += 1  # code -1 (no task) is 0
    present = np.bincount(cells, minlength=len(meta.task_labels) + 1) > 0
    cells = (np.cumsum(present) - 1)[cells]  # rank among the selected codes
    cells *= bin_count
    cells += bins
    codes = np.flatnonzero(present) - 1
    counts = np.bincount(cells, minlength=len(codes) * bin_count)
    names = (UNLABELED_TASK,) + meta.task_labels  # code -1 is the first
    table: dict[str, list] = {}
    for code, row in zip(codes.tolist(), counts.reshape(-1, bin_count).tolist()):
        name = names[code + 1]  # a task labelled "(unlabeled)" shares that row
        table[name] = [a + b for a, b in zip(table[name], row)] if name in table else row
    return table


def build_report(
    manifest: RetrievalManifest,
    meta: MetadataTable,
    *,
    labels: Optional[Mapping[str, str]] = None,
    bin_count: int = 10,
) -> dict:
    """The diagnostics report of a selection, as :func:`emit_report` writes it.

    Every count is a sum of one :func:`task_bin_counts` table. ``tasks``
    holds its row sums (``counts``), those over the selection size
    (``fractions``) and each task's ``relevance`` in ``labels``; it is null
    when no selected row carries a task label. A selected task missing
    from ``labels`` is ``harmful``, with a logged warning when labels were
    given. ``timesteps`` holds the column sums (``counts``, ``normalized``).
    ``task_timesteps`` is the table itself, null when no row of ``meta``
    carries a task label. ``evaluation`` is the selection's precision and
    recall against the rows whose task ``labels`` calls ``relevant``
    (:func:`iwre.synthbench.evaluate_retrieval`), null without labels.
    ``config_fingerprint`` and ``method`` are the manifest's.
    """
    if labels is not None:
        _check_relevance(labels)
    table = task_bin_counts(manifest, meta, bin_count)
    counts = {task: sum(row) for task, row in table.items()}
    tasks = None
    if meta.task_code[manifest.selected_indices].max() >= 0:
        for task in counts if labels is not None else ():
            if task not in labels:
                logger.warning(
                    "task %r has no relevance label; defaulting to 'harmful'", task
                )
        tasks = {
            "counts": counts,
            "fractions": {task: c / manifest.size for task, c in counts.items()},
            "relevance": {task: (labels or {}).get(task, "harmful") for task in counts},
        }
    per_bin = np.sum(list(table.values()), axis=0, dtype=np.int64)
    evaluation = None
    if labels:
        evaluation = asdict(evaluate_retrieval(manifest, row_relevance(meta, labels)))
    return {
        "engine_version": __version__,
        "config_fingerprint": manifest.config_fingerprint,
        "method": manifest.method.value,
        "tasks": tasks,
        "timesteps": {
            "bin_count": per_bin.size,
            "counts": per_bin.tolist(),
            "normalized": (per_bin / manifest.size).tolist(),
        },
        "task_timesteps": table if meta.task_code.max(initial=-1) >= 0 else None,
        "evaluation": evaluation,
    }


def emit_report(report: dict, path) -> None:
    """Write a :func:`build_report` dict as JSON with sorted keys."""
    write_json(path, report)


def load_report(path) -> dict:
    """Parse an emitted report back into a dict (exact float round-trip)."""
    return json.loads(Path(path).read_text())
