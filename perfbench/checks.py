"""Independent checks of the files the iwre CLI writes.

Nothing here imports iwre. Scores are recomputed from the documented
definitions with plain numpy/scipy: kernel densities from a dense inverse
and direct differences (no whitening, no GEMM expansion), nearest-neighbour
distances with ``math.fsum``, selections with Python's own sort. Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

HEADER = struct.Struct("<4sHBQI")  # magic, version, dtype code, rows, dim
DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

KDE_RTOL = 1e-10  # acceptance criterion 01
RIDGE_EPS = 1e-9  # first step of the engine's documented ridge schedule
BATCH_ROWS = 4096  # documented default batch size: min(4096, N) rows
CHECK_ROWS = 24  # prior rows recomputed per score file


def read_container(path) -> np.ndarray:
    """Read an IWRE binary container as a float64 matrix."""
    raw = Path(path).read_bytes()
    magic, version, code, rows, dim = HEADER.unpack_from(raw)
    if magic != b"IWRE" or version != 1 or code not in DTYPE_CODES:
        raise ValueError(f"{path}: bad container header")
    data = np.frombuffer(raw, dtype=DTYPE_CODES[code], offset=HEADER.size)
    if data.size != rows * dim:
        raise ValueError(f"{path}: payload does not match header")
    return data.reshape(rows, dim).astype(np.float64)


def write_container(path, array: np.ndarray) -> None:
    """Write a float32 or float64 matrix as an IWRE binary container."""
    arr = np.ascontiguousarray(array)
    code = {dt: c for c, dt in DTYPE_CODES.items()}[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(b"IWRE", 1, code, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_scores(path) -> np.ndarray:
    values = read_container(path)
    if values.shape[1] != 1:
        raise ValueError(f"{path}: score file has dim {values.shape[1]}")
    return values[:, 0]


def read_csv_rows(path) -> list[list[str]]:
    """The rows of a CSV file after its header, as lists of strings."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def sample_rows(n: int, seed: int) -> np.ndarray:
    """The prior rows whose scores are recomputed, drawn from the run seed."""
    rng = np.random.default_rng([seed, 1])
    return np.sort(rng.choice(n, size=min(CHECK_ROWS, n), replace=False))


class ReferenceKde:
    """Gaussian KDE with Scott bandwidth and the 1e-9 * trace / d ridge."""

    def __init__(self, support: np.ndarray, scale: float):
        m, d = support.shape
        h = scale * m ** (-1.0 / (d + 4))
        cov = np.atleast_2d(np.cov(support, rowvar=False))
        cov = cov + RIDGE_EPS * np.trace(cov) / d * np.eye(d)
        kernel = h * h * cov
        self.support = support
        self.inv = np.linalg.inv(kernel)
        self.log_norm = -0.5 * np.linalg.slogdet(2.0 * np.pi * kernel)[1]

    def log_density(self, x: np.ndarray, exclude: int | None = None) -> float:
        delta = self.support - x
        log_k = self.log_norm - 0.5 * ((delta @ self.inv) * delta).sum(axis=1)
        if exclude is not None:
            log_k = np.delete(log_k, exclude)
        return float(logsumexp(log_k) - np.log(log_k.size))


def check_iwr(scores, target, prior, scale, seed, num_batches, leave_self_out):
    """Recompute sampled iwr scores: target KDE minus log-mean of batch KDEs."""
    n = prior.shape[0]
    rng = np.random.default_rng(seed)
    batches = [
        np.sort(rng.choice(n, size=min(BATCH_ROWS, n), replace=False))
        for _ in range(num_batches)
    ]
    target_kde = ReferenceKde(target, scale)
    batch_kdes = [ReferenceKde(prior[idx], scale) for idx in batches]
    problems = []
    for row in sample_rows(n, seed):
        x = prior[row]
        log_t = target_kde.log_density(x)
        log_b = []
        for idx, kde in zip(batches, batch_kdes):
            pos = int(np.searchsorted(idx, row))
            own = pos < idx.size and idx[pos] == row
            log_b.append(kde.log_density(x, pos if leave_self_out and own else None))
        log_p = float(logsumexp(log_b) - np.log(len(log_b)))
        want = log_t - log_p
        # Absolute below 1, where a relative error of a log-ratio means little.
        if abs(scores[row] - want) > KDE_RTOL * max(1.0, abs(want)):
            problems.append(f"iwr row {row}: {float(scores[row])!r} != reference {want!r}")
    return problems


def check_nn(scores, target, prior, seed) -> list[str]:
    """nn_l2 scores are <= 0 and equal -min squared distance on sampled rows."""
    problems = []
    if not (np.isfinite(scores).all() and (scores <= 0.0).all()):
        problems.append("nn_l2 scores must be finite and <= 0")
    # math.fsum is correctly rounded; the engine's sum may differ by the
    # float64 rounding bound of a d-term sum.
    tol = prior.shape[1] * 2.0**-52
    for row in sample_rows(prior.shape[0], seed):
        want = -min(math.fsum(d) for d in ((prior[row] - target) ** 2).tolist())
        if abs(scores[row] - want) > tol * abs(want):
            problems.append(f"nn_l2 row {row}: {float(scores[row])!r} != reference {want!r}")
    return problems


def expected_selection(scores: np.ndarray, fraction: float) -> list[int]:
    """The round(f * N) rows with the highest (score, -index), ascending."""
    n = scores.size
    k = math.floor(fraction * n + 0.5)
    values = scores.tolist()
    order = sorted(range(n), key=lambda i: (-values[i], i))
    return sorted(order[:k])


def check_manifest(path, scores, fraction) -> list[str]:
    manifest = json.loads(Path(path).read_text())
    want = expected_selection(scores, fraction)
    problems = []
    if manifest.get("rule") != "fraction" or manifest.get("rule_param") != fraction:
        problems.append(f"{path.name}: rule is not fraction {fraction}")
    if manifest.get("selected_indices") != want:
        problems.append(f"{path.name}: indices are not the top {len(want)} rows")
    elif manifest.get("scores_at_selection") != [float(scores[i]) for i in want]:
        problems.append(f"{path.name}: scores_at_selection differ from scores file")
    return problems


def check_retrieve(out: Path, scores, prior, fraction, n_target, meta=None):
    """Manifest, retrieved rows, retrieved metadata and co-training weights."""
    problems = check_manifest(out / "manifest.json", scores, fraction)
    want = expected_selection(scores, fraction)
    if not np.array_equal(read_container(out / "retrieved.bin"), prior[want]):
        problems.append("retrieved.bin rows differ from the selected prior rows")
    if meta is not None:
        got = read_csv_rows(out / "retrieved_meta.csv")
        if got != [meta[i] for i in want]:
            problems.append("retrieved_meta.csv differs from the selected metadata")
    weights = read_csv_rows(out / "weights.csv")
    roles = [(r[0], int(r[1])) for r in weights]
    if roles != [("target", i) for i in range(n_target)] + [
        ("retrieved", i) for i in want
    ]:
        problems.append("weights.csv rows differ from target + selection")
    elif abs(math.fsum(float(r[2]) for r in weights) - 1.0) > 1e-9:
        problems.append("weights.csv weights do not total 1")
    return problems


def precision(selected, meta, labels) -> float:
    hits = sum(labels.get(meta[i][3]) == "relevant" for i in selected)
    return hits / len(selected)


def check_report(path, selected, meta, labels, bins) -> list[str]:
    report = json.loads(Path(path).read_text())
    problems = []
    tasks = Counter(meta[i][3] for i in selected)
    if report["tasks"]["counts"] != dict(tasks):
        problems.append("report.json task counts differ from the selection")
    steps = Counter(int(meta[i][1]) * bins // int(meta[i][2]) for i in selected)
    if report["timesteps"]["counts"] != [steps[b] for b in range(bins)]:
        problems.append("report.json timestep counts differ from the selection")
    if report["evaluation"]["precision"] != precision(selected, meta, labels):
        problems.append("report.json precision differs from the labels")
    return problems
