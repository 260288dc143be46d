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

lse, kde_target and both iwr terms are one row job: per prior row, the
log-density of one fitted KDE. iwr's prior term folds each batch KDE's job
into one accumulator by ``np.logaddexp``, batch by batch.

:class:`ScoringConfig` (a rule plus its parameters) is the one way to
score: it fits what the rule needs, scores, and gives the result its record
(the resolved configuration and source ids, which a score file's sidecar
holds) and the fingerprint of that record. Explicit models are built with
:func:`~iwre.kde.fit_kde` and :func:`fit_prior_batched` and evaluated with
:meth:`~iwre.kde.GaussianKde.score_samples` and :func:`~iwre.kde.log_mean_exp`.

Scoring is embarrassingly parallel across prior rows; worker threads only
split the fixed row chunks, so results are identical for any thread count.
One :meth:`~ScoringConfig.score` is one run of one thread pool: it fits
each model as a task and runs each model's job on every row chunk, the
target term first, then iwr's batches, at most two in flight. A batch's
task for a chunk folds after the batch before has folded that chunk, so
each row's fold order is fixed, and a worker that finishes early starts the
next fit or chunk rather than wait for a batch to end. That pool is the
only source of parallelism: while scoring runs, every loaded OpenBLAS is
pinned to one thread (:mod:`iwre._blas`).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from functools import partial
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from ._blas import single_threaded_blas
from ._validation import (
    check_count,
    check_real,
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
    """How to subsample the prior when one KDE cannot hold all of it. Fields
    convert as :class:`ScoringConfig`'s do (``4096.0`` is held as ``4096``;
    a bool or ``"4"`` is refused), then take its ranges, ``rng_seed`` as ``seed``."""

    batch_size: int
    num_batches: int = 8
    rng_seed: int = field(kw_only=True)

    def __post_init__(self):
        coerce_fields(self, "batch parameter")
        ScoringConfig(batch_size=self.batch_size, num_batches=self.num_batches,
                      seed=self.rng_seed)


def _as_dataset(x) -> EmbeddingDataset:
    return x if isinstance(x, EmbeddingDataset) else EmbeddingDataset(x)


def _check_batch_fits(batch_size: int, prior_rows: int) -> None:
    if batch_size > prior_rows:  # a batch is drawn without replacement
        raise ValidationError(
            f"batch_size {batch_size} exceeds prior rows {prior_rows}",
            code="bad_batch_spec")


def _map_row_chunks(prior: EmbeddingDataset, stages, threads: Optional[int]) -> None:
    """Run ``stages`` over the fixed row chunks of ``prior`` in one thread
    pool of ``threads`` workers, BLAS pinned.

    A stage is ``(fit, job, out)``: one task runs ``fit()``, then one task
    per chunk ``sl`` writes ``job(model, sl)`` into ``out[sl]`` once the
    stage before has had its turn at that chunk, so every row is written in
    stage order whatever the thread count. Stage ``s + 1`` is submitted only
    once stage ``s - 1`` has finished, so at most two stages' models and
    tasks are alive; a task waits only on tasks submitted before it, so the
    pool cannot deadlock. A mapped prior's chunk rows are released after
    each task. Overflow is not warned about. The first failure in stage
    order is raised, a non-finite result as ``non_finite_scores``; a chunk
    task of a failed fit writes nothing, and once a failure is raised
    neither do the tasks left, so none is left waiting."""
    if threads is None:  # the CPUs this process may run on, else all of them
        affinity = getattr(os, "sched_getaffinity", None)
        threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    slices = [
        slice(s, min(s + _OUTER_CHUNK_ROWS, prior.rows))
        for s in range(0, prior.rows, _OUTER_CHUNK_ROWS)
    ]
    turns = [0] * len(slices)  # per chunk, the stages that have had their turn
    turn, stop = threading.Condition(), threading.Event()

    def run(fitted, stage, c, job, out):
        sl = slices[c]
        with turn:
            turn.wait_for(lambda: turns[c] == stage or stop.is_set())
        try:
            if stop.is_set() or fitted.exception() is not None:
                return  # the failed fit is raised from its own task
            with np.errstate(over="ignore", invalid="ignore"):  # per thread
                out[sl] = job(fitted.result(), sl)
            release_rows(prior.data, sl.start, sl.stop)
            row = first_non_finite_row(out[sl, None])
            if row is not None:
                raise NumericalError(
                    f"scores overflowed: non-finite value at prior row {sl.start + row}",
                    code="non_finite_scores",
                )
        finally:
            with turn:
                turns[c] = stage + 1
                turn.notify_all()

    def finish(futures):
        for future in futures:
            future.result()

    window = deque()  # the futures of the stages in flight, each fit first
    with single_threaded_blas(), ThreadPoolExecutor(max_workers=threads) as ex:
        try:
            for stage, (fit, job, out) in enumerate(stages):
                if len(window) == 2:
                    finish(window.popleft())
                fitted = ex.submit(fit)
                window.append([fitted, *(ex.submit(run, fitted, stage, c, job, out)
                                         for c in range(len(slices)))])
            while window:
                finish(window.popleft())
        except BaseException:
            with turn:
                stop.set()
                turn.notify_all()
            ex.shutdown(cancel_futures=True)
            raise


def _log_density_job(prior, leave_self_out=False, acc=None):
    """The row job: the log-density of a KDE at rows ``sl`` of ``prior``,
    or, given ``acc``, ``np.logaddexp`` of ``acc[sl]`` and it. With
    ``leave_self_out`` a row in the KDE's support (``support_row_ids_``,
    which :func:`fit_prior_batched` sets) does not count its own kernel
    toward its density."""

    def job(kde, sl):
        q = prior.data[sl]
        exclude = None
        if leave_self_out:
            # Each support member leaves out its own kernel, in the same pass.
            ids = kde.support_row_ids_
            lo, hi = np.searchsorted(ids, [sl.start, sl.stop])
            exclude = np.full(q.shape[0], -1)
            exclude[ids[lo:hi] - sl.start] = np.arange(lo, hi)
        log_p = kde._log_density(q, exclude)  # the dataset checked q
        return log_p if acc is None else np.logaddexp(acc[sl], log_p, out=log_p)

    return job


def _batch_draws(rows: int, spec: PriorBatchSpec):
    """The sorted row ids of each random prior batch, drawn in order from
    the seeded generator, with its count. A batch of the whole prior is
    drawn once, as the mean of equal densities is that density."""
    _check_batch_fits(spec.batch_size, rows)
    count = 1 if spec.batch_size == rows else spec.num_batches
    rng = np.random.default_rng(spec.rng_seed)
    draws = (np.sort(rng.choice(rows, size=spec.batch_size, replace=False))
             for _ in range(count))
    return count, draws


def _fit_batch(prior: EmbeddingDataset, idx, bandwidth) -> GaussianKde:
    """The KDE of prior rows ``idx``, which it holds as ``support_row_ids_``."""
    kde = GaussianKde(scale_c=bandwidth.scale_c).fit(gather_rows(prior.data, idx))
    kde.support_row_ids_ = idx
    return kde


@single_threaded_blas()  # one pin for every batch's fit
def fit_prior_batched(
    prior, spec: PriorBatchSpec, bandwidth: BandwidthSpec | None = None
) -> list[GaussianKde]:
    """Fit one KDE per random prior batch (uniform, without replacement),
    with BLAS pinned to one thread.

    Batch index sets are drawn with a seeded generator and sorted ascending,
    so a batch covering the whole prior reproduces the plain full-prior fit
    exactly. Each fitted model carries its global row indices in
    ``support_row_ids_`` for optional leave-self-out scoring. When a batch
    is the whole prior, every batch is, so one KDE is returned: the mean of
    equal densities is that density.
    """
    prior, bandwidth = _as_dataset(prior), bandwidth or BandwidthSpec()
    _, draws = _batch_draws(prior.rows, spec)
    return [_fit_batch(prior, idx, bandwidth) for idx in draws]


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
        check_real(self.scale_c, "scale_c", positive=True)
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
            params["batch_size"] = self.batch_size or min(4096, prior.rows)
            _check_batch_fits(params["batch_size"], prior.rows)
        return params

    def fingerprint(self, target, prior) -> str:
        """Hash of the resolved values the method reads and both source ids;
        batch membership is fixed by the seed, so no model is fitted."""
        return _record_fingerprint(self.sidecar_params(target, prior))

    def score(self, target, prior, threads: int | None = 1) -> ScoreVector:
        """Fit what the method needs and score; the result carries its record
        and the record's fingerprint. Fits run with BLAS pinned to one thread."""
        target, prior = _as_dataset(target), _as_dataset(prior)
        threads = check_threads(threads)
        params = self.sidecar_params(target, prior)
        if target.dim != prior.dim:
            raise ValidationError(
                f"target dim {target.dim} does not match prior dim {prior.dim}",
                code="dim_mismatch",
            )
        bandwidth = BandwidthSpec(self.scale_c)
        values = np.empty(prior.rows)
        if self.method is ScoreMethod.NN_L2:
            _map_row_chunks(prior, [(
                lambda: np.asarray(target.data, dtype=np.float64),
                lambda support, sl: -nearest_sq_dists(prior.data[sl], support),
                values)], threads)
        elif self.method is ScoreMethod.LSE:
            # The log-density of the isotropic KDE with kernel covariance
            # (h^2/2) I is log_norm - log M + log sum_j exp(-||p - t_j||^2 / h^2).
            h = params["temperature"]
            kde = GaussianKde.from_parameters(
                target.data, h / np.sqrt(2.0), np.eye(target.dim)
            )
            _map_row_chunks(prior, [(lambda: kde, _log_density_job(prior), values)],
                            threads)
            values += np.log(kde.count_) - kde.log_norm_
            values *= 1.0 / (h * h)
        else:
            stages = [(partial(fit_kde, target, bandwidth), _log_density_job(prior),
                       values)]
            if self.method is ScoreMethod.IWR:
                # The prior term: each batch KDE's job folds it into acc, the
                # first one writes it, so acc is log_mean_exp's fold.
                acc = np.empty(prior.rows)
                spec = PriorBatchSpec(params["batch_size"], self.num_batches,
                                      rng_seed=self.seed)
                count, draws = _batch_draws(prior.rows, spec)
                stages = chain(stages, (
                    (partial(_fit_batch, prior, idx, bandwidth),
                     _log_density_job(prior, self.leave_self_out, acc if k else None),
                     acc)
                    for k, idx in enumerate(draws)))
            _map_row_chunks(prior, stages, threads)
            if self.method is ScoreMethod.IWR:
                acc -= np.log(count)
                values -= acc
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


def save_scores(scores: ScoreVector, path) -> None:
    """Write scores as a binary vector plus a JSON sidecar holding exactly
    their record (``params``), its ``config_fingerprint`` and the
    ``engine_version``."""
    write_vector_file(scores.values[:, None], path)
    write_json(Path(path).with_suffix(".json"), {
        "config_fingerprint": scores.config_fingerprint,
        "engine_version": __version__, "params": dict(scores.params)})


def load_scores(path) -> ScoreVector:
    """Read a score file back as a :class:`ScoreVector` built from the
    record its sidecar holds as ``params``, or refuse with ``bad_sidecar`` a
    sidecar that makes no valid one with the file's values, or whose stored
    ``config_fingerprint`` is not its record's (an edited record). Any other
    top-level key, such as the copies older sidecars hold, is ignored."""
    meta_path = Path(path).with_suffix(".json")
    if not meta_path.exists():
        raise ValidationError(f"missing score sidecar {meta_path}",
                              code="missing_sidecar")
    sidecar = read_json_object(meta_path, "bad_sidecar",
                               ("config_fingerprint", "params"))
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
    stored = sidecar["config_fingerprint"]
    if stored != scores.config_fingerprint:
        raise ValidationError(f"{meta_path}: config_fingerprint {stored!r} is not "
                              "the one its params record", code="bad_sidecar")
    return scores
