"""Per-row retrieval scores for a prior embedding dataset.

Four scoring rules share one output contract: higher score means more
retrievable.

``nn_l2``
    Negated squared distance to the nearest target row, so thresholding at
    ``-zeta`` reproduces the classic "distance below zeta" selection.
``lse``
    Temperature-smoothed soft maximum of the negated squared distances,
    ``(1/h^2) * log(sum_j exp(-||p - t_j||^2 / h^2))``. As the temperature
    shrinks its *ranking* collapses onto ``nn_l2``; the value does not,
    since it grows like ``-d^2 / h^4``.
``kde_target``
    Log-density of the prior row under a Gaussian KDE of the target data.
``iwr``
    Log importance weight: target KDE log-density minus the log of the
    averaged density over a set of KDEs fit on random prior batches.

:class:`ScoringConfig` (a rule plus its parameters) is the one entry point:
it fits what the rule needs, scores, and stamps a fingerprint of the config
and source ids. The ``score_*`` functions take fitted models instead, so
their results carry an empty fingerprint.

Scoring is embarrassingly parallel across prior rows; worker threads only
split the fixed row chunks, so results are identical for any thread count.
That row-chunk pool is the only source of parallelism: while scoring runs,
every loaded OpenBLAS is pinned to one thread (:mod:`iwre._blas`).
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._blas import single_threaded_blas
from ._validation import (
    check_count,
    check_positive,
    check_threads,
    check_vector,
    read_json_object,
)
from .dataset import (
    EmbeddingDataset,
    gather_rows,
    read_vector_file,
    write_vector_file,
)
from .errors import ValidationError
from .kde import (
    BandwidthSpec,
    GaussianKde,
    fit_kde,
    log_mean_exp,
    nearest_sq_dists,
    scott_bandwidth,
)
from ._version import __version__

# Rows handed to each scoring job; fixed so outputs never depend on the
# thread count. Inner exponent-matrix chunking is handled by the kde engine.
_OUTER_CHUNK_ROWS = 8192


class ScoreMethod(str, Enum):
    NN_L2 = "nn_l2"
    LSE = "lse"
    KDE_TARGET = "kde_target"
    IWR = "iwr"


_LOG_SPACE_METHODS = frozenset({ScoreMethod.KDE_TARGET, ScoreMethod.IWR})


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Per-prior-row scores plus the provenance needed to reproduce them."""

    values: np.ndarray
    method: ScoreMethod
    config_fingerprint: str
    prior_source_id: str = ""
    target_source_id: str = ""

    def __post_init__(self):
        values = check_vector(self.values, "scores")
        method = ScoreMethod(self.method)
        if method is ScoreMethod.NN_L2 and values.size and values.max() > 0.0:
            raise ValidationError(
                "nn_l2 scores are negated squared distances and must be <= 0",
                code="bad_scores",
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "method", method)

    @property
    def log_space(self) -> bool:
        """True for methods whose scores are log-densities or log-ratios."""
        return self.method in _LOG_SPACE_METHODS

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PriorBatchSpec:
    """How to subsample the prior when one KDE cannot hold all of it."""

    batch_size: int
    num_batches: int = 8
    rng_seed: int = field(kw_only=True)

    def __post_init__(self):
        check_count(self.batch_size, "batch_size", minimum=2)
        check_count(self.num_batches, "num_batches", minimum=1)
        int(self.rng_seed)


def default_batch_spec(n_prior: int, rng_seed: int) -> PriorBatchSpec:
    """Default batching: up to 4096 rows per batch, 8 batches."""
    return PriorBatchSpec(min(4096, int(n_prior)), rng_seed=rng_seed)


def config_fingerprint(**payload) -> str:
    """Deterministic 16-hex-digit hash of a configuration payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _as_dataset(x) -> EmbeddingDataset:
    return x if isinstance(x, EmbeddingDataset) else EmbeddingDataset(np.asarray(x))


def _check_dims(target_dim: int, prior: EmbeddingDataset) -> None:
    if target_dim != prior.dim:
        raise ValidationError(
            f"target dim {target_dim} does not match prior dim {prior.dim}",
            code="dim_mismatch",
        )


def _default_threads() -> int:
    """CPUs this process may run on (its affinity set), else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_row_chunks(n_rows: int, job, threads: Optional[int]) -> np.ndarray:
    """Run ``job`` on each fixed row chunk, ``threads`` at a time, BLAS pinned."""
    threads = check_threads(threads)
    if threads is None:
        threads = _default_threads()
    slices = [
        slice(s, min(s + _OUTER_CHUNK_ROWS, n_rows))
        for s in range(0, n_rows, _OUTER_CHUNK_ROWS)
    ]
    with single_threaded_blas():
        if threads == 1 or len(slices) == 1:
            parts = [job(sl) for sl in slices]
        else:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                parts = list(ex.map(job, slices))
    return np.concatenate(parts)


# -- scoring rules ----------------------------------------------------------


def score_nn_l2(target, prior, *, threads: int | None = 1) -> ScoreVector:
    """Negated squared distance from each prior row to its nearest target row."""
    target = _as_dataset(target)
    prior = _as_dataset(prior)
    _check_dims(target.dim, prior)
    support = np.asarray(target.data, dtype=np.float64)
    values = -_map_row_chunks(
        prior.rows, lambda sl: nearest_sq_dists(prior.data[sl], support), threads
    )
    return ScoreVector(
        values, ScoreMethod.NN_L2, "", prior.source_id, target.source_id
    )


def score_lse(
    target,
    prior,
    temperature_h: float | None = None,
    *,
    bandwidth: BandwidthSpec | None = None,
    threads: int | None = 1,
) -> ScoreVector:
    """Soft-maximum score ``(1/h^2) * log(sum_j exp(-||p - t_j||^2 / h^2))``.

    As ``h -> 0`` the ranking converges to :func:`score_nn_l2`'s, but the
    value grows like ``-d^2 / h^4`` (``d^2`` the nearest squared distance),
    so a threshold on it means something different at each temperature.

    When ``temperature_h`` is omitted it defaults to the Scott-rule
    bandwidth of the target dataset (using ``bandwidth``, default scale 4),
    which keeps the smoothing comparable to the target KDE.
    """
    target = _as_dataset(target)
    prior = _as_dataset(prior)
    _check_dims(target.dim, prior)
    if temperature_h is None:
        spec = bandwidth or BandwidthSpec()
        temperature_h = scott_bandwidth(spec.scale_c, target.rows, target.dim)
    temperature_h = check_positive(temperature_h, "temperature_h")
    inv_h2 = 1.0 / (temperature_h * temperature_h)
    # The log-density of the isotropic KDE with kernel covariance (h^2/2) I
    # is log_norm - log M + log sum_j exp(-||p - t_j||^2 / h^2).
    kde = GaussianKde.from_parameters(
        target.data, temperature_h / np.sqrt(2.0), np.eye(target.dim)
    )
    offset = np.log(kde.count_) - kde.log_norm_

    def job(sl):
        return inv_h2 * (kde.score_samples(prior.data[sl]) + offset)

    values = _map_row_chunks(prior.rows, job, threads)
    return ScoreVector(values, ScoreMethod.LSE, "", prior.source_id, target.source_id)


def score_kde_target(
    target_kde: GaussianKde, prior, *, threads: int | None = 1
) -> ScoreVector:
    """Log-density of each prior row under the fitted target KDE."""
    prior = _as_dataset(prior)
    _check_dims(target_kde.dim_, prior)

    values = _map_row_chunks(
        prior.rows, lambda sl: target_kde.score_samples(prior.data[sl]), threads
    )
    return ScoreVector(
        values, ScoreMethod.KDE_TARGET, "", prior_source_id=prior.source_id
    )


def fit_prior_batched(
    prior, spec: PriorBatchSpec, bandwidth: BandwidthSpec | None = None
) -> list[GaussianKde]:
    """Fit one KDE per random prior batch (uniform, without replacement).

    Batch index sets are drawn with a seeded generator and sorted ascending,
    so a batch covering the whole prior reproduces the plain full-prior fit
    exactly. Each fitted model carries its global row indices in
    ``support_row_ids_`` for optional leave-self-out scoring.
    """
    prior = _as_dataset(prior)
    bandwidth = bandwidth or BandwidthSpec()
    if spec.batch_size > prior.rows:
        raise ValidationError(
            f"batch_size {spec.batch_size} exceeds prior rows {prior.rows}",
            code="bad_batch_spec",
        )
    rng = np.random.default_rng(spec.rng_seed)
    kdes = []
    for _ in range(spec.num_batches):
        idx = np.sort(rng.choice(prior.rows, size=spec.batch_size, replace=False))
        batch = gather_rows(prior.data, idx)
        kde = GaussianKde(scale_c=bandwidth.scale_c).fit(batch)
        kde.support_row_ids_ = idx
        kdes.append(kde)
    return kdes


def score_importance_weight(
    target_kde: GaussianKde,
    prior_kdes: Sequence[GaussianKde],
    prior,
    *,
    leave_self_out: bool = False,
    threads: int | None = 1,
) -> ScoreVector:
    """Log importance weight of each prior row.

    ``log p_target(z) - log p_prior(z)`` where the prior log-density is the
    log of the arithmetic mean of the batch KDE densities (a log-mean-exp
    over the per-batch log-densities). A monotone transform of the density
    ratio, so thresholding on it is equivalent to thresholding the ratio.

    With ``leave_self_out`` a prior row that belongs to a batch's support
    does not count its own kernel toward that batch's density.
    """
    prior = _as_dataset(prior)
    if not prior_kdes:
        raise ValidationError("prior_kdes must be non-empty", code="empty_batch_list")
    _check_dims(target_kde.dim_, prior)
    for kde in prior_kdes:
        _check_dims(kde.dim_, prior)
        if leave_self_out and getattr(kde, "support_row_ids_", None) is None:
            raise ValidationError(
                "leave_self_out requires batch KDEs fitted by fit_prior_batched "
                "(missing support row ids)",
                code="missing_row_ids",
            )

    def job(sl):
        q = prior.data[sl]
        log_t = target_kde.score_samples(q)
        log_p = np.empty((len(prior_kdes), q.shape[0]))
        for k, kde in enumerate(prior_kdes):
            exclude = None
            if leave_self_out:
                # Each batch member leaves out its own kernel, in the same pass.
                ids = kde.support_row_ids_
                lo, hi = np.searchsorted(ids, [sl.start, sl.stop])
                exclude = np.full(q.shape[0], -1)
                exclude[ids[lo:hi] - sl.start] = np.arange(lo, hi)
            log_p[k] = kde.score_samples(q, exclude=exclude)
        return log_t - log_mean_exp(log_p, axis=0)

    values = _map_row_chunks(prior.rows, job, threads)
    return ScoreVector(values, ScoreMethod.IWR, "", prior_source_id=prior.source_id)


# -- scoring configuration ----------------------------------------------------

# Version of the fingerprint payload. Score files written under another
# scheme are refused instead of compared.
FINGERPRINT_SCHEME = 2

# Resolved fields each method reads; only these enter its fingerprint.
_METHOD_FIELDS = {
    ScoreMethod.NN_L2: (),
    ScoreMethod.LSE: ("temperature",),
    ScoreMethod.KDE_TARGET: ("scale_c",),
    ScoreMethod.IWR: ("scale_c", "batch_size", "num_batches", "seed", "leave_self_out"),
}

# Types of the fields that default to None; the others take their default's.
_OPTIONAL_TYPES = {"temperature": float, "batch_size": int, "seed": int}


@dataclass(frozen=True)
class ScoringConfig:
    """A scoring rule and its parameters; the one way to score and fingerprint.

    ``temperature`` (lse) and ``batch_size`` (iwr) may stay ``None``; they
    are filled in from the data by :meth:`resolve`. Fields a method does
    not read are kept but ignored.
    """

    method: ScoreMethod = ScoreMethod.IWR
    scale_c: float = 4.0
    temperature: float | None = None
    batch_size: int | None = None
    num_batches: int = 8
    seed: int | None = None
    leave_self_out: bool = False

    def __post_init__(self):
        # Fixed types keep the fingerprint independent of how a value was given.
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            try:
                converted = _OPTIONAL_TYPES.get(f.name, type(f.default))(value)
                if converted != value:
                    raise ValueError(value)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"bad scoring parameter {f.name}={value!r}", code="bad_param"
                ) from exc
            object.__setattr__(self, f.name, converted)

    def resolve(self, target, prior) -> "ScoringConfig":
        """Default the lse temperature to the target's Scott bandwidth and the
        iwr batch size to ``min(4096, N)``; iwr needs a seed."""
        target, prior = _as_dataset(target), _as_dataset(prior)
        if self.method is ScoreMethod.LSE and self.temperature is None:
            h = scott_bandwidth(self.scale_c, target.rows, target.dim)
            return replace(self, temperature=h)
        if self.method is ScoreMethod.IWR:
            if self.seed is None:
                raise ValidationError(
                    "a seed is required for method iwr (prior batching)",
                    code="seed_required",
                )
            if self.batch_size is None:
                spec = default_batch_spec(prior.rows, self.seed)
                return replace(self, batch_size=spec.batch_size)
        return self

    def fingerprint(self, target, prior) -> str:
        """Hash of the resolved fields the method reads and both source ids.

        Batch membership is fixed by the seed, so no model is fitted.
        """
        target, prior = _as_dataset(target), _as_dataset(prior)
        cfg = self.resolve(target, prior)
        return config_fingerprint(
            fingerprint_scheme=FINGERPRINT_SCHEME,
            method=cfg.method.value,
            **{name: getattr(cfg, name) for name in _METHOD_FIELDS[cfg.method]},
            target=target.source_id,
            prior=prior.source_id,
        )

    def score(self, target, prior, threads: int | None = 1) -> ScoreVector:
        """Fit what the method needs; stamp the fingerprint and source ids.

        The fits run with BLAS pinned to one thread, like the scoring.
        """
        target, prior = _as_dataset(target), _as_dataset(prior)
        cfg = self.resolve(target, prior)
        with single_threaded_blas():
            if cfg.method is ScoreMethod.NN_L2:
                scores = score_nn_l2(target, prior, threads=threads)
            elif cfg.method is ScoreMethod.LSE:
                scores = score_lse(target, prior, cfg.temperature, threads=threads)
            elif cfg.method is ScoreMethod.KDE_TARGET:
                target_kde = fit_kde(target, BandwidthSpec(cfg.scale_c))
                scores = score_kde_target(target_kde, prior, threads=threads)
            else:
                bandwidth = BandwidthSpec(cfg.scale_c)
                spec = PriorBatchSpec(
                    cfg.batch_size, cfg.num_batches, rng_seed=cfg.seed
                )
                scores = score_importance_weight(
                    fit_kde(target, bandwidth),
                    fit_prior_batched(prior, spec, bandwidth),
                    prior,
                    leave_self_out=cfg.leave_self_out,
                    threads=threads,
                )
        fingerprint = cfg.fingerprint(target, prior)
        return ScoreVector(
            scores.values, cfg.method, fingerprint, prior.source_id, target.source_id
        )


# -- persistence --------------------------------------------------------------


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def save_scores(scores: ScoreVector, path, params: dict | None = None) -> None:
    """Write scores as a binary vector plus a JSON sidecar of provenance."""
    write_vector_file(scores.values[:, None], path)
    sidecar = {
        "engine_version": __version__,
        "method": scores.method.value,
        "config_fingerprint": scores.config_fingerprint,
        "log_space": scores.log_space,
        "prior_source_id": scores.prior_source_id,
        "target_source_id": scores.target_source_id,
        "params": params or {},
    }
    sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def load_scores(path) -> tuple[ScoreVector, dict]:
    """Read a score file and its sidecar back."""
    meta_path = sidecar_path(path)
    if not meta_path.exists():
        raise ValidationError(
            f"missing score sidecar {meta_path}", code="missing_sidecar"
        )
    sidecar = read_json_object(
        meta_path, "bad_sidecar", ("method", "config_fingerprint", "params")
    )
    if sidecar["method"] not in {m.value for m in ScoreMethod}:
        raise ValidationError(f"{meta_path}: unknown method", code="bad_sidecar")
    values, _ = read_vector_file(path)
    if values.shape[1] != 1:
        raise ValidationError(
            f"{path}: score files must have dim 1, got {values.shape[1]}",
            code="dim_mismatch",
        )
    scores = ScoreVector(
        values[:, 0],
        ScoreMethod(sidecar["method"]),
        sidecar["config_fingerprint"],
        prior_source_id=sidecar.get("prior_source_id", ""),
        target_source_id=sidecar.get("target_source_id", ""),
    )
    return scores, sidecar
