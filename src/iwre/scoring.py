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

:class:`ScoringConfig` (a rule plus its parameters) is the one entry point:
it fits what the rule needs, scores, and gives the result its record (the
resolved configuration and source ids, which a score file's sidecar holds)
and the fingerprint of that record. The ``score_*`` functions take fitted
models instead, so their results carry an empty record and fingerprint.

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
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

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
    """Per-prior-row scores plus the provenance needed to reproduce them.

    ``values`` is read-only. An array passed in is copied unless it is
    already a read-only float64 vector, such as a result of the scoring
    rules, which is then held as it is. ``params``, read-only, records how
    :meth:`ScoringConfig.score` made them (:meth:`~ScoringConfig.sidecar_params`);
    it is empty for the ``score_*`` functions' results, else its method and
    ids must be the vector's.
    """

    values: np.ndarray
    method: ScoreMethod
    config_fingerprint: str
    prior_source_id: str = ""
    target_source_id: str = ""
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        values = read_only(check_vector(self.values, "scores"), self.values)
        coerce_fields(self, "score field", ("method", "config_fingerprint",
                                            "prior_source_id", "target_source_id"))
        if self.method is ScoreMethod.NN_L2 and values.size and values.max() > 0.0:
            raise ValidationError(
                "nn_l2 scores are negated squared distances and must be <= 0",
                code="bad_scores",
            )
        if not isinstance(self.params, Mapping):
            raise ValidationError(f"params must be a mapping, got {self.params!r}",
                                  code="malformed_value")
        ids = {"method": self.method.value, "prior_source_id": self.prior_source_id,
               "target_source_id": self.target_source_id}
        for key, value in ids.items():
            record = self.params.get(key) if self.params else value
            if not isinstance(record, str) or record != value:
                raise ValidationError(f"{key} {value!r} is not params' {record!r}",
                                      code="malformed_value")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

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


def config_fingerprint(**payload) -> str:
    """Deterministic 16-hex-digit hash of a configuration payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _as_dataset(x) -> EmbeddingDataset:
    return x if isinstance(x, EmbeddingDataset) else EmbeddingDataset(x)


def _check_dims(target_dim: int, prior: EmbeddingDataset) -> None:
    if target_dim != prior.dim:
        raise ValidationError(
            f"target dim {target_dim} does not match prior dim {prior.dim}",
            code="dim_mismatch",
        )


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
    With ``leave_self_out`` a row in a KDE's support (``support_row_ids_``)
    does not count its own kernel toward that KDE's density."""
    if not kdes:
        raise ValidationError("prior_kdes must be non-empty", code="empty_batch_list")
    for kde in kdes:
        _check_dims(kde.dim_, prior)
        if leave_self_out and getattr(kde, "support_row_ids_", None) is None:
            raise ValidationError(
                "leave_self_out requires batch KDEs fitted by fit_prior_batched "
                "(missing support row ids)",
                code="missing_row_ids",
            )

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


def _scores(values, method, prior, target_source_id="") -> ScoreVector:
    values.flags.writeable = False  # so the ScoreVector holds it, uncopied
    return ScoreVector(values, method, "", prior.source_id, target_source_id)


# -- scoring rules ----------------------------------------------------------


def score_nn_l2(target, prior, *, threads: int | None = 1) -> ScoreVector:
    """Negated squared distance from each prior row to its nearest target row."""
    target = _as_dataset(target)
    prior = _as_dataset(prior)
    _check_dims(target.dim, prior)
    support = np.asarray(target.data, dtype=np.float64)
    values = _map_row_chunks(
        prior, lambda sl: -nearest_sq_dists(prior.data[sl], support), threads
    )
    return _scores(values, ScoreMethod.NN_L2, prior, target.source_id)


def _lse_temperature(scale_c: float, target: EmbeddingDataset) -> float:
    """lse's temperature: the target's Scott bandwidth at ``scale_c``, so a
    temperature ``T`` is the one at ``scale_c = T * M ** (1 / (d + 4))``."""
    return scott_bandwidth(scale_c, target.rows, target.dim)


def score_lse(
    target,
    prior,
    temperature_h: float | None = None,
    *,
    threads: int | None = 1,
) -> ScoreVector:
    """Soft-maximum score ``(1/h^2) * log(sum_j exp(-||p - t_j||^2 / h^2))``.

    As ``h -> 0`` the ranking converges to :func:`score_nn_l2`'s, but the
    value grows like ``-d^2 / h^4`` (``d^2`` the nearest squared distance),
    so a threshold on it means something different at each temperature.

    When ``temperature_h`` is omitted it is the one lse scoring at the
    default ``scale_c`` uses: the target's Scott bandwidth.
    """
    target = _as_dataset(target)
    prior = _as_dataset(prior)
    if temperature_h is None:
        temperature_h = _lse_temperature(BandwidthSpec.scale_c, target)
    temperature_h = check_positive(temperature_h, "temperature_h")
    # The log-density of the isotropic KDE with kernel covariance (h^2/2) I
    # is log_norm - log M + log sum_j exp(-||p - t_j||^2 / h^2).
    kde = GaussianKde.from_parameters(
        target.data, temperature_h / np.sqrt(2.0), np.eye(target.dim)
    )
    values = _log_mean_density([kde], prior, threads=threads)
    values += np.log(kde.count_) - kde.log_norm_
    values *= 1.0 / (temperature_h * temperature_h)
    return _scores(values, ScoreMethod.LSE, prior, target.source_id)


def score_kde_target(
    target_kde: GaussianKde, prior, *, threads: int | None = 1
) -> ScoreVector:
    """Log-density of each prior row under the fitted target KDE."""
    prior = _as_dataset(prior)
    values = _log_mean_density([target_kde], prior, threads=threads)
    return _scores(values, ScoreMethod.KDE_TARGET, prior)


def fit_prior_batched(
    prior, spec: PriorBatchSpec, bandwidth: BandwidthSpec | None = None
) -> list[GaussianKde]:
    """Fit one KDE per random prior batch (uniform, without replacement).

    Batch index sets are drawn with a seeded generator and sorted ascending,
    so a batch covering the whole prior reproduces the plain full-prior fit
    exactly. Each fitted model carries its global row indices in
    ``support_row_ids_`` for optional leave-self-out scoring. A batch drawn
    again right after itself, as every batch is when it spans the prior, is
    the same fitted object, which scoring then scores once.
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


def score_importance_weight(
    target_kde: GaussianKde,
    prior_kdes: Sequence[GaussianKde],
    prior,
    *,
    leave_self_out: bool = False,
    threads: int | None = 1,
) -> ScoreVector:
    """Log importance weight of each prior row.

    ``log p_target(z) - log p_prior(z)``: the target term, the log-density
    under ``target_kde``, minus the prior term, the log of the mean density
    of the batch KDEs. A monotone transform of the density ratio, so
    thresholding on it is equivalent to thresholding the ratio. The prior
    term never reads the target: it depends only on the prior, ``scale_c``,
    the batch size, ``num_batches``, the seed and ``leave_self_out``, with
    which a prior row in a batch's support does not count its own kernel
    toward that batch's density.
    """
    prior = _as_dataset(prior)
    values = _log_mean_density([target_kde], prior, threads=threads)
    values -= _log_mean_density(
        prior_kdes, prior, leave_self_out=leave_self_out, threads=threads
    )
    return _scores(values, ScoreMethod.IWR, prior)


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
    return config_fingerprint(
        fingerprint_scheme=FINGERPRINT_SCHEME, method=method.value,
        **{name: params[name] for name in _METHOD_FIELDS[method]},
        target=params["target_source_id"], prior=params["prior_source_id"],
    )


@dataclass(frozen=True)
class ScoringConfig:
    """A scoring rule and its parameters; the one way to score and fingerprint.

    Every field is checked when the config is built, whichever method reads
    it: ``scale_c`` must be positive, ``batch_size`` at least 2,
    ``num_batches`` at least 1 and ``seed`` at least 0. The bandwidth and
    batching defaults are :class:`BandwidthSpec`'s and
    :class:`PriorBatchSpec`'s. ``scale_c`` is every method's one bandwidth
    knob: lse's temperature is the target's Scott bandwidth at it. The iwr
    ``batch_size`` may stay ``None``; it is then filled in from the prior.
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
        count, capped; iwr needs a seed) and ``temperature`` (lse's, else
        None), the fingerprint scheme and both source ids."""
        target, prior = _as_dataset(target), _as_dataset(prior)
        params = {**asdict(self), "method": self.method.value, "temperature": None,
                  "fingerprint_scheme": FINGERPRINT_SCHEME,
                  "target_source_id": target.source_id,
                  "prior_source_id": prior.source_id}
        if self.method is ScoreMethod.LSE:
            params["temperature"] = _lse_temperature(self.scale_c, target)
        if self.method is ScoreMethod.IWR:
            if self.seed is None:
                raise ValidationError(
                    "a seed is required for method iwr (prior batching)",
                    code="seed_required",
                )
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
        bandwidth = BandwidthSpec(self.scale_c)
        with single_threaded_blas():
            if self.method is ScoreMethod.NN_L2:
                scores = score_nn_l2(target, prior, threads=threads)
            elif self.method is ScoreMethod.LSE:
                h = params["temperature"]
                scores = score_lse(target, prior, h, threads=threads)
            elif self.method is ScoreMethod.KDE_TARGET:
                target_kde = fit_kde(target, bandwidth)
                scores = score_kde_target(target_kde, prior, threads=threads)
            else:
                spec = PriorBatchSpec(
                    params["batch_size"], self.num_batches, rng_seed=self.seed
                )
                scores = score_importance_weight(
                    fit_kde(target, bandwidth),
                    fit_prior_batched(prior, spec, bandwidth),
                    prior,
                    leave_self_out=self.leave_self_out,
                    threads=threads,
                )
        return replace(scores, config_fingerprint=_record_fingerprint(params),
                       target_source_id=target.source_id, params=params)

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
                               "config_fingerprint") if theirs.get(k) != ours[k])
        raise ValidationError(
            f"stale scores: {key} is {ours[key]!r} here but "
            f"{theirs.get(key)!r} in the score file",
            code="fingerprint_mismatch",
        )

    @classmethod
    def from_sidecar(cls, scores: ScoreVector, path) -> "ScoringConfig":
        """The configuration recorded with ``scores``, read from the file
        ``path``; scores with no record, or another scheme's, are refused."""
        params = scores.params
        if params.get("fingerprint_scheme") != FINGERPRINT_SCHEME:
            problem = ("was written under another fingerprint scheme" if params
                       else "records no scoring configuration")
            raise ValidationError(f"{path} {problem}; rescore it with `iwre score`",
                                  code="bad_sidecar")
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in params]
        if missing:
            raise ValidationError(f"{path}: params lack {missing}", code="bad_sidecar")
        return cls(**{name: params[name] for name in names})


# -- persistence --------------------------------------------------------------


def save_scores(scores: ScoreVector, path) -> None:
    """Write scores as a binary vector plus a JSON sidecar of provenance,
    which holds their record as ``params``."""
    write_vector_file(scores.values[:, None], path)
    sidecar = {
        "engine_version": __version__,
        "method": scores.method.value,
        "config_fingerprint": scores.config_fingerprint,
        "log_space": scores.log_space,
        "prior_source_id": scores.prior_source_id,
        "target_source_id": scores.target_source_id,
        "params": dict(scores.params),
    }
    write_json(Path(path).with_suffix(".json"), sidecar)


def load_scores(path) -> ScoreVector:
    """Read a score file back as a :class:`ScoreVector` carrying the record
    its sidecar holds, or refuse with ``bad_sidecar`` a sidecar that makes
    no valid one with the file's values."""
    meta_path = Path(path).with_suffix(".json")
    if not meta_path.exists():
        raise ValidationError(f"missing score sidecar {meta_path}",
                              code="missing_sidecar")
    sidecar = read_json_object(meta_path, "bad_sidecar",
                               ("method", "config_fingerprint", "params"))
    values, _, _ = read_vector_file(path)
    if values.shape[1] != 1:
        raise ValidationError(
            f"{path}: score files must have dim 1, got {values.shape[1]}",
            code="dim_mismatch",
        )
    column = values[:, 0].copy()  # the scores, not the mapped file
    column.flags.writeable = False
    ids = [sidecar.get(key, "") for key in ("prior_source_id", "target_source_id")]
    try:
        return ScoreVector(column, sidecar["method"], sidecar["config_fingerprint"],
                           *ids, sidecar["params"])
    except ValidationError as exc:
        raise ValidationError(f"{meta_path}: {exc}", code="bad_sidecar") from exc
