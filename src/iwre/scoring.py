"""Per-row retrieval scores for a prior embedding dataset.

Four scoring rules share one output contract: higher score means more
retrievable.

``nn_l2``
    Negated squared distance to the nearest target row, so thresholding at
    ``-zeta`` reproduces the classic "distance below zeta" selection.
``lse``
    Temperature-smoothed soft maximum of the negated squared distances,
    ``(1/h^2) * log(sum_j exp(-||p - t_j||^2 / h^2))``, with ``h`` the
    target's Scott bandwidth at ``scale_c``, as for the KDE rules. As the
    temperature shrinks its *ranking* collapses onto ``nn_l2``; the value
    does not, since it grows like ``-d^2 / h^4``.
``kde_target``
    Log-density of the prior row under a Gaussian KDE of the target data.
``iwr``
    Log importance weight: the target term (kde_target) minus the prior
    term, the log of the mean density of KDEs fit on random prior batches.
    The prior term never reads the target; it depends only on the prior,
    ``scale_c``, the batch size, ``num_batches``, the seed and
    ``leave_self_out``.

lse, kde_target and both iwr terms are one row job: per prior row, the log
of the mean density of a list of fitted KDEs.

:class:`ScoringConfig` (a rule plus its parameters) is the one way to
score: it fits what the rule needs, scores, and gives the result its record
(the resolved configuration and source ids, which a score file's sidecar
holds) and the fingerprint of that record. Explicit models are built with
:func:`~iwre.kde.fit_kde` and :func:`fit_prior_batched` and evaluated with
:meth:`~iwre.kde.GaussianKde.score_samples` and :func:`~iwre.kde.log_mean_exp`.

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
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from ._blas import single_threaded_blas
from ._validation import (
    check_count,
    check_positive,
    check_threads,
    check_vector,
    coerce_fields,
    first_non_finite_row,
    read_json_object,
    read_only,
    write_json,
)
from .dataset import (
    EmbeddingDataset,
    gather_rows,
    read_vector_file,
    release_rows,
    write_vector_file,
)
from .errors import NumericalError, ValidationError
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
    """Per-prior-row scores plus the record needed to reproduce them.

    ``values`` is read-only. An array passed in is copied unless it is
    already a read-only float64 vector, such as a result of the scoring
    rules, which is then held as it is. ``params``, read-only, is the
    record of how :meth:`ScoringConfig.score` made them
    (:meth:`~ScoringConfig.sidecar_params`), the one source of ``method``,
    the source ids and ``config_fingerprint``. A record that is no mapping
    of the current fingerprint scheme, or lacks a :class:`ScoringConfig`
    field, ``temperature`` or an id, is refused (``malformed_value``).
    """

    values: np.ndarray
    params: Mapping
    method: ScoreMethod = field(init=False)
    prior_source_id: str = field(init=False)
    target_source_id: str = field(init=False)
    config_fingerprint: str = field(init=False)

    def __post_init__(self):
        values = read_only(check_vector(self.values, "scores"), self.values)
        params = self.params
        if not isinstance(params, Mapping):
            raise ValidationError(f"params must be a mapping, got {params!r}",
                                  code="malformed_value")
        if params.get("fingerprint_scheme") != FINGERPRINT_SCHEME:
            what = ("records no scoring configuration" if not params else
                    "was recorded under another fingerprint scheme")
            raise ValidationError(f"params {what}; rescore with `iwre score` or "
                                  "ScoringConfig.score", code="malformed_value")
        provenance = ("method", "prior_source_id", "target_source_id")
        keys = (*(f.name for f in fields(ScoringConfig)), "temperature", *provenance)
        missing = [key for key in keys if key not in params]
        if missing:
            raise ValidationError(f"params lack {missing}", code="malformed_value")
        for key in provenance:
            object.__setattr__(self, key, params[key])
        coerce_fields(self, "score field", provenance)
        if self.method is ScoreMethod.NN_L2 and values.size and values.max() > 0.0:
            raise ValidationError(
                "nn_l2 scores are negated squared distances and must be <= 0",
                code="bad_scores",
            )
        try:
            fingerprint = _record_fingerprint(params)
        except (TypeError, ValueError) as exc:  # a hashed value JSON cannot hold
            raise ValidationError(f"params cannot be fingerprinted: {exc}",
                                  code="malformed_value") from exc
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "params", MappingProxyType(dict(params)))
        object.__setattr__(self, "config_fingerprint", fingerprint)

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
        check_count(self.rng_seed, "rng_seed", minimum=0)


def _as_dataset(x) -> EmbeddingDataset:
    return x if isinstance(x, EmbeddingDataset) else EmbeddingDataset(x)


def _map_row_chunks(prior: EmbeddingDataset, job, threads: Optional[int]) -> np.ndarray:
    """Run ``job`` on each fixed row chunk of ``prior``, ``threads`` at a
    time, BLAS pinned; a mapped prior's chunk rows are released after it.
    Each chunk's result is written into one output vector, which the caller
    owns. Overflow is not warned about; a non-finite result is refused."""
    threads = check_threads(threads)
    if threads is None:  # the CPUs this process may run on, else all of them
        affinity = getattr(os, "sched_getaffinity", None)
        threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    slices = [
        slice(s, min(s + _OUTER_CHUNK_ROWS, prior.rows))
        for s in range(0, prior.rows, _OUTER_CHUNK_ROWS)
    ]

    out = np.empty(prior.rows)

    def run(sl):
        with np.errstate(over="ignore", invalid="ignore"):  # per thread
            out[sl] = job(sl)
        release_rows(prior.data, sl.start, sl.stop)

    with single_threaded_blas():
        if threads == 1 or len(slices) == 1:
            for sl in slices:
                run(sl)
        else:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                list(ex.map(run, slices))
    row = first_non_finite_row(out[:, None])
    if row is not None:
        raise NumericalError(
            f"scores overflowed: non-finite value at prior row {row}",
            code="non_finite_scores",
        )
    return out


def _log_mean_density(kdes, prior, *, leave_self_out=False, threads=1) -> np.ndarray:
    """Log of the mean density of ``kdes`` at each row of ``prior`` (a
    log-mean-exp over their log-densities; one KDE's log-density exactly).
    With ``leave_self_out`` a row in a KDE's support (``support_row_ids_``,
    which :func:`fit_prior_batched` sets) does not count its own kernel
    toward that KDE's density."""

    def job(sl):
        q = prior.data[sl]
        log_p = np.empty((len(kdes), q.shape[0]))
        for k, kde in enumerate(kdes):
            if k and kde is kdes[k - 1]:  # a repeated batch: scored once
                log_p[k] = log_p[k - 1]
                continue
            exclude = None
            if leave_self_out:
                # Each support member leaves out its own kernel, in the same pass.
                ids = kde.support_row_ids_
                lo, hi = np.searchsorted(ids, [sl.start, sl.stop])
                exclude = np.full(q.shape[0], -1)
                exclude[ids[lo:hi] - sl.start] = np.arange(lo, hi)
            log_p[k] = kde._log_density(q, exclude)  # the dataset checked q
        return log_mean_exp(log_p, axis=0)

    return _map_row_chunks(prior, job, threads)


@single_threaded_blas()  # one pin for every batch's fit
def fit_prior_batched(
    prior, spec: PriorBatchSpec, bandwidth: BandwidthSpec | None = None
) -> list[GaussianKde]:
    """Fit one KDE per random prior batch (uniform, without replacement),
    with BLAS pinned to one thread.

    Batch index sets are drawn with a seeded generator and sorted ascending,
    so a batch covering the whole prior reproduces the plain full-prior fit
    exactly. Each fitted model carries its global row indices in
    ``support_row_ids_`` for optional leave-self-out scoring. A batch drawn
    again right after itself, as every batch is when it spans the prior, is
    the same fitted object, which :meth:`ScoringConfig.score` then scores
    once.
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
        if kdes and np.array_equal(idx, kdes[-1].support_row_ids_):
            kdes.append(kdes[-1])  # the same batch (every one, when it is the prior)
            continue
        batch = gather_rows(prior.data, idx)
        kde = GaussianKde(scale_c=bandwidth.scale_c).fit(batch)
        kde.support_row_ids_ = idx
        kdes.append(kde)
    return kdes


# -- scoring configuration ----------------------------------------------------

# Version of the fingerprint payload. Score files written under another
# scheme are refused instead of compared.
FINGERPRINT_SCHEME = 2

# Resolved values each method reads; only these enter its fingerprint.
_METHOD_FIELDS = {
    ScoreMethod.NN_L2: (),
    ScoreMethod.LSE: ("temperature",),
    ScoreMethod.KDE_TARGET: ("scale_c",),
    ScoreMethod.IWR: ("scale_c", "batch_size", "num_batches", "seed", "leave_self_out"),
}


def _record_fingerprint(params) -> str:
    """The fingerprint of a record (:meth:`ScoringConfig.sidecar_params`):
    a hash of the values its method reads and both source ids."""
    method = ScoreMethod(params["method"])
    payload = dict(
        fingerprint_scheme=FINGERPRINT_SCHEME, method=method.value,
        **{name: params[name] for name in _METHOD_FIELDS[method]},
        target=params["target_source_id"], prior=params["prior_source_id"],
    )
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ScoringConfig:
    """A scoring rule and its parameters; the one way to score and fingerprint.

    Every field is checked when the config is built, whichever method reads
    it: ``scale_c`` must be positive, ``batch_size`` at least 2,
    ``num_batches`` at least 1 and ``seed`` at least 0. The bandwidth and
    batching defaults are :class:`BandwidthSpec`'s and
    :class:`PriorBatchSpec`'s. ``scale_c`` is every method's one bandwidth
    knob: lse's temperature is the target's Scott bandwidth at it, so a
    temperature ``T`` is the one at ``scale_c = T * M ** (1 / (d + 4))``
    for ``M`` target rows of dim ``d``. The iwr ``batch_size`` may stay
    ``None``; it is then filled in from the prior.
    Fields a method does not read are kept but ignored. :meth:`score`
    gives its result the resolved configuration and lse's temperature as
    its record (:meth:`sidecar_params`), which :meth:`from_sidecar` reads.
    """

    method: ScoreMethod = ScoreMethod.IWR
    scale_c: float = BandwidthSpec.scale_c
    batch_size: int | None = None
    num_batches: int = PriorBatchSpec.num_batches
    seed: int | None = None
    leave_self_out: bool = False

    def __post_init__(self):
        coerce_fields(self, "scoring parameter")
        check_positive(self.scale_c, "scale_c")
        if self.batch_size is not None:
            check_count(self.batch_size, "batch_size", minimum=2)
        check_count(self.num_batches, "num_batches", minimum=1)
        if self.seed is not None:
            check_count(self.seed, "seed", minimum=0)

    def sidecar_params(self, target, prior) -> dict:
        """The resolved configuration a score sidecar records as ``params``:
        the fields, with the iwr batch size filled in (the prior's row
        count, capped at 4096) and ``temperature`` (lse's, else None), the
        fingerprint scheme and both source ids. iwr needs a seed, a prior
        of at least 2 rows and a batch size no larger than the prior."""
        target, prior = _as_dataset(target), _as_dataset(prior)
        params = {**asdict(self), "method": self.method.value, "temperature": None,
                  "fingerprint_scheme": FINGERPRINT_SCHEME,
                  "target_source_id": target.source_id,
                  "prior_source_id": prior.source_id}
        if self.method is ScoreMethod.LSE:
            params["temperature"] = scott_bandwidth(self.scale_c, target.rows,
                                                    target.dim)
        if self.method is ScoreMethod.IWR:
            if self.seed is None:
                raise ValidationError(
                    "a seed is required for method iwr (prior batching)",
                    code="seed_required",
                )
            if prior.rows < 2:
                raise ValidationError(
                    f"iwr batches the prior, which needs at least 2 rows, "
                    f"got {prior.rows}", code="bad_batch_spec")
            if self.batch_size is not None and self.batch_size > prior.rows:
                raise ValidationError(
                    f"batch_size {self.batch_size} exceeds prior rows {prior.rows}",
                    code="bad_batch_spec")
            params["batch_size"] = self.batch_size or min(4096, prior.rows)
        return params

    def fingerprint(self, target, prior) -> str:
        """Hash of the resolved values the method reads and both source ids;
        batch membership is fixed by the seed, so no model is fitted."""
        return _record_fingerprint(self.sidecar_params(target, prior))

    def score(self, target, prior, threads: int | None = 1) -> ScoreVector:
        """Fit what the method needs and score; the result carries its record
        and the record's fingerprint. Fits run with BLAS pinned to one thread."""
        target, prior = _as_dataset(target), _as_dataset(prior)
        params = self.sidecar_params(target, prior)
        if target.dim != prior.dim:
            raise ValidationError(
                f"target dim {target.dim} does not match prior dim {prior.dim}",
                code="dim_mismatch",
            )
        bandwidth = BandwidthSpec(self.scale_c)
        with single_threaded_blas():
            if self.method is ScoreMethod.NN_L2:
                support = np.asarray(target.data, dtype=np.float64)
                values = _map_row_chunks(
                    prior, lambda sl: -nearest_sq_dists(prior.data[sl], support), threads
                )
            elif self.method is ScoreMethod.LSE:
                # The log-density of the isotropic KDE with kernel covariance
                # (h^2/2) I is log_norm - log M + log sum_j exp(-||p - t_j||^2 / h^2).
                h = params["temperature"]
                kde = GaussianKde.from_parameters(
                    target.data, h / np.sqrt(2.0), np.eye(target.dim)
                )
                values = _log_mean_density([kde], prior, threads=threads)
                values += np.log(kde.count_) - kde.log_norm_
                values *= 1.0 / (h * h)
            else:
                target_kde = fit_kde(target, bandwidth)
                values = _log_mean_density([target_kde], prior, threads=threads)
                if self.method is ScoreMethod.IWR:
                    spec = PriorBatchSpec(
                        params["batch_size"], self.num_batches, rng_seed=self.seed
                    )
                    values -= _log_mean_density(
                        fit_prior_batched(prior, spec, bandwidth), prior,
                        leave_self_out=self.leave_self_out, threads=threads,
                    )
        values.flags.writeable = False  # so the ScoreVector holds it, uncopied
        return ScoreVector(values, params)

    def check_fresh(self, scores: ScoreVector, target, prior) -> None:
        """Refuse ``scores`` (``fingerprint_mismatch``) unless this config on
        ``target`` and ``prior`` has their fingerprint, naming the first
        hashed value that differs from their record. No model is fitted."""
        params = self.sidecar_params(target, prior)
        fingerprint = _record_fingerprint(params)
        if fingerprint == scores.config_fingerprint:
            return
        ours = {**params, "config_fingerprint": fingerprint}
        theirs = {**scores.params, "config_fingerprint": scores.config_fingerprint}
        key = next(k for k in ("method", *_METHOD_FIELDS[self.method],
                               "target_source_id", "prior_source_id",
                               "config_fingerprint") if theirs[k] != ours[k])
        raise ValidationError(
            f"stale scores: {key} is {ours[key]!r} here but "
            f"{theirs[key]!r} in the score file",
            code="fingerprint_mismatch",
        )

    @classmethod
    def from_sidecar(cls, scores: ScoreVector) -> "ScoringConfig":
        """The configuration recorded with ``scores``."""
        return cls(**{f.name: scores.params[f.name] for f in fields(cls)})


# -- persistence --------------------------------------------------------------

# The values of a score vector's record that its sidecar repeats at the top.
_SIDECAR_COPIES = ("method", "prior_source_id", "target_source_id",
                   "config_fingerprint")


def save_scores(scores: ScoreVector, path) -> None:
    """Write scores as a binary vector plus a JSON sidecar of provenance,
    which holds their record as ``params``."""
    write_vector_file(scores.values[:, None], path)
    sidecar = {key: getattr(scores, key) for key in _SIDECAR_COPIES}
    sidecar.update(engine_version=__version__, log_space=scores.log_space,
                   params=dict(scores.params))
    write_json(Path(path).with_suffix(".json"), sidecar)


def load_scores(path) -> ScoreVector:
    """Read a score file back as a :class:`ScoreVector` carrying the record
    its sidecar holds, or refuse with ``bad_sidecar`` a sidecar that makes
    no valid one with the file's values, or whose top-level method, source
    ids or fingerprint are not the ones its record gives."""
    meta_path = Path(path).with_suffix(".json")
    if not meta_path.exists():
        raise ValidationError(f"missing score sidecar {meta_path}",
                              code="missing_sidecar")
    sidecar = read_json_object(meta_path, "bad_sidecar", (*_SIDECAR_COPIES, "params"))
    values, _, _ = read_vector_file(path)
    if values.shape[1] != 1:
        raise ValidationError(
            f"{path}: score files must have dim 1, got {values.shape[1]}",
            code="dim_mismatch",
        )
    column = values[:, 0].copy()  # the scores, not the mapped file
    column.flags.writeable = False
    try:
        scores = ScoreVector(column, sidecar["params"])
    except ValidationError as exc:
        raise ValidationError(f"{meta_path}: {exc}", code="bad_sidecar") from exc
    for key in _SIDECAR_COPIES:
        if sidecar[key] != getattr(scores, key):
            raise ValidationError(f"{meta_path}: {key} {sidecar[key]!r} is not "
                                  "the one its params record", code="bad_sidecar")
    return scores
