"""Shared oracles for the test suite.

These deliberately avoid the library's whitened/log-sum-exp code paths:
densities come from a dense matrix inverse and a plain sum of exponentials
in extended precision, distances from an explicit double loop. Metadata
files are read record by record through ``csv.reader``.
"""

import csv

import numpy as np
from hypothesis import strategies as st

from iwre.dataset import METADATA_FIELDS, MetadataTable
from iwre.errors import ValidationError


def naive_log_density(kde, support: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Direct sum of Gaussian pdfs in extended precision via a dense inverse,
    with kernels of ``kde``'s covariance at the rows of ``support``, the
    array it was fitted on."""
    cov = kde.bandwidth_**2 * kde.covariance_
    inv = np.linalg.inv(cov).astype(np.longdouble)
    _, logdet = np.linalg.slogdet(cov)
    d = support.shape[1]
    log_norm = -0.5 * (d * np.log(np.longdouble(2.0) * np.pi) + np.longdouble(logdet))
    sup = np.asarray(support).astype(np.longdouble)
    q = np.asarray(queries, dtype=np.longdouble)
    delta = q[:, None, :] - sup[None, :, :]
    m = np.einsum("qmd,de,qme->qm", delta, inv, delta)
    dens = np.exp(log_norm - m / 2.0).sum(axis=1) / sup.shape[0]
    return np.log(dens).astype(np.float64)


def brute_force_min_sq_dists(prior: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum squared distance per prior row, by explicit double loop."""
    out = np.empty(prior.shape[0])
    for i in range(prior.shape[0]):
        best = np.inf
        for j in range(target.shape[0]):
            diff = prior[i] - target[j]
            best = min(best, float(np.sum(diff**2)))
        out[i] = best
    return out


def ranking(values: np.ndarray) -> np.ndarray:
    """Indices ordered by descending value, ties broken by ascending index."""
    return np.lexsort((np.arange(len(values)), -np.asarray(values)))


def metadata_table(rows) -> MetadataTable:
    """A table of ``(episode_id, step_index, episode_length, task_label)``
    rows, in order; a label of None is unlabeled."""
    rows = list(rows)
    labels = sorted({row[3] for row in rows if row[3] is not None})
    codes = [-1 if row[3] is None else labels.index(row[3]) for row in rows]
    return MetadataTable(*(np.array([row[k] for row in rows], np.int64) for k in range(3)),
                         codes, tuple(labels))


def reference_load_metadata(path) -> list:
    """A metadata sidecar as a list of ``(episode_id, step_index,
    episode_length, task_label)`` tuples, read record by record through
    ``csv.reader`` and ``int()``, with the same error codes and ``line L
    (row i)`` locations the columnar loader must give."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty metadata file", code="empty_dataset")
        if tuple(header) != METADATA_FIELDS:
            raise ValidationError(
                f"{path}: expected header {','.join(METADATA_FIELDS)}, "
                f"got {','.join(header)}",
                code="malformed_header",
            )
        records = []
        for row in reader:
            if not row:
                continue
            at = f"line {reader.line_num} (row {len(records)})"
            if len(row) != len(METADATA_FIELDS):
                raise ValidationError(
                    f"{path}: {at} has {len(row)} fields, expected "
                    f"{len(METADATA_FIELDS)}",
                    code="dim_mismatch",
                )
            try:
                ints = [int(field) for field in row[:3]]
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: {at}: {exc}", code="malformed_value"
                ) from exc
            step, length = ints[1], ints[2]
            if length < 1:
                raise ValidationError(f"{path}: {at}: episode_length must be >= 1, "
                                      f"got {length}", code="bad_episode_length")
            if not 0 <= step < length:
                raise ValidationError(f"{path}: {at}: step_index {step} outside "
                                      f"[0, {length})", code="bad_step_index")
            records.append((*ints, row[3] if row[3] != "" else None))
    if not records:
        raise ValidationError(f"{path}: no metadata rows", code="empty_dataset")
    return records


# Any JSON value, NaN and the infinities included (Python's json reads and
# writes them), with strings the files hold among the leaves.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["iwr", "nn_l2", "lse", "kde_target", "fraction", "resample"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
