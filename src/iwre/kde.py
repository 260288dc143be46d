"""Multivariate Gaussian kernel density estimation and the kernel engine.

A fitted model places one Gaussian kernel, with covariance ``h^2 * Sigma``,
at every support row. ``h`` comes from a scaled Scott rule and ``Sigma`` is
the (ridge-regularized) sample covariance of the support. Queries are
centred on the support mean and whitened by the inverse of the Cholesky
factor of ``h^2 * Sigma`` (stored once at fit, so whitening is one GEMM),
so each kernel exponent is ``-|w - s|^2 / 2``; one chunked engine
(:func:`_kernel_exponents`, one GEMM per chunk) forms them and a log-sum-exp
reduces them. nn_l2 is its zero-bandwidth limit (:func:`nearest_sq_dists`),
reduced by maximum and recomputed exactly. Float32 queries are widened to
float64 a chunk at a time, as they are centred, so every chunk's
temporaries stay within ``_CHUNK_ELEMS`` and results equal those of the
widened queries.

Every exponent is at most 0, so the log-sum-exp's max shift only guards
against underflow. A chunk skips the shift when two O(rows) checks prove it
unneeded: a probe of about 64 evenly spaced support columns finds an
exponent of at least ``_SHIFT_FREE_FLOOR`` (-600) in every row, and the
GEMM rounding bound ``4 (d+2) eps (max |w|^2 + max |s|^2)`` is below 1, so
no exponent can overflow. Other chunks are bit-identical to the shifted
reduction; shift-free rows move only in the last bits.

Determinism contract: the query chunking is fixed and each query's kernel
sum reduces over the full support in ascending index order, so identical
inputs give bit-identical log-densities for any number of worker threads.
Splitting the queries differently may change the last bits, because BLAS
orders a dot product differently for other block shapes and the shift-free
check looks at a whole chunk.

Threading: the row-chunk pool in :mod:`iwre.scoring` is the only source of
parallelism. Scoring pins every loaded OpenBLAS to one thread
(:mod:`iwre._blas`), so each GEMM here runs on the calling worker alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validation import ParamsMixin, check_count, check_matrix, check_positive
from .errors import NumericalError, ValidationError

LOG_2PI = float(np.log(2.0 * np.pi))

# Ridge schedule: eps starts tiny and doubles until the Cholesky succeeds.
RIDGE_EPS_INITIAL = 1e-9
RIDGE_EPS_MAX = 1e-3

# Query chunks are sized so that all of a chunk's temporaries (the exponent
# matrix, the query operand, and nn_l2's candidate mask and gathers) hold
# about this many float64 elements. It bounds memory; other values change
# results only in the last bits (see the determinism contract above).
_CHUNK_ELEMS = 1 << 20

# A chunk whose every row has an exponent at or above this floor is summed
# without the max shift. Each row's sum is then at least e^-600, so a term
# that can move its rounding is at least e^-636 (eps is e^-36), still normal
# (above e^-708): subnormal or zero terms cost no precision.
_SHIFT_FREE_FLOOR = -600.0
_PROBE_COLUMNS = 64  # support columns the floor probe reads, evenly spaced


@dataclass(frozen=True)
class BandwidthSpec:
    """Scott-rule bandwidth with a multiplicative scale factor."""

    scale_c: float = 4.0

    def __post_init__(self):
        check_positive(self.scale_c, "scale_c")


def scott_bandwidth(scale_c: float, count: int, dim: int) -> float:
    """Rule-of-thumb bandwidth ``scale_c * count ** (-1 / (dim + 4))``."""
    scale_c = check_positive(scale_c, "scale_c")
    count = check_count(count, "count")
    dim = check_count(dim, "dim")
    return scale_c * float(count) ** (-1.0 / (dim + 4))


def sample_covariance(x) -> np.ndarray:
    """Unbiased sample covariance (divisor N-1); identity for a single row."""
    x = check_matrix(x, "x")
    n, d = x.shape
    if n == 1:
        return np.eye(d)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return (cov + cov.T) / 2.0


class GaussianKde(ParamsMixin):
    """Gaussian kernel density model with one kernel per support row.

    Parameters
    ----------
    scale_c : float
        Multiplier on the Scott-rule bandwidth ``count ** (-1/(dim+4))``.

    Attributes (set by :meth:`fit` or :meth:`from_parameters`)
    ----------
    support_ : (M, d) ndarray
        Kernel centers.
    bandwidth_ : float
        Bandwidth multiplier ``h``.
    covariance_ : (d, d) ndarray
        Regularized kernel covariance ``Sigma`` (before the ``h^2`` scaling).
    chol_lower_ : (d, d) ndarray
        Lower Cholesky factor of ``h^2 * Sigma``.
    log_norm_ : float
        Log of the per-kernel Gaussian normalizer,
        ``-sum(log(diag(chol_lower_))) - (d/2) * log(2*pi)``.
    count_ : int
        Number of kernels M.
    """

    def __init__(self, scale_c: float | None = 4.0):
        self.scale_c = scale_c

    # -- fitting -----------------------------------------------------------

    def fit(self, X, y=None) -> "GaussianKde":
        """Fit bandwidth, covariance and Cholesky factor to the support X."""
        X = check_matrix(X, "X")
        h = scott_bandwidth(self.scale_c, X.shape[0], X.shape[1])
        self._finalize(X, h, sample_covariance(X), always_ridge=True)
        return self

    @classmethod
    def from_parameters(cls, support, bandwidth_h, covariance) -> "GaussianKde":
        """Build a model directly from centers, bandwidth and covariance.

        The covariance is used as given when it is positive definite; the
        ridge schedule only kicks in if its Cholesky fails.
        """
        support = check_matrix(support, "support")
        bandwidth_h = check_positive(bandwidth_h, "bandwidth_h")
        covariance = np.asarray(covariance, dtype=np.float64)
        d = support.shape[1]
        if covariance.shape != (d, d):
            raise ValidationError(
                f"covariance shape {covariance.shape} does not match dim {d}",
                code="dim_mismatch",
            )
        model = cls(scale_c=None)
        model._finalize(support, bandwidth_h, covariance, always_ridge=False)
        return model

    def _finalize(self, support, h, cov, *, always_ridge):
        d = support.shape[1]
        cov = (cov + cov.T) / 2.0
        trace_scale = float(np.trace(cov)) / d
        if trace_scale <= 0.0:
            trace_scale = 1.0
        eye = np.eye(d)

        eps = RIDGE_EPS_INITIAL if always_ridge else 0.0
        while True:
            regularized = cov + (eps * trace_scale) * eye if eps else cov
            try:
                chol = np.linalg.cholesky((h * h) * regularized)
                break
            except np.linalg.LinAlgError:
                eps = RIDGE_EPS_INITIAL if eps == 0.0 else eps * 2.0
                if eps > RIDGE_EPS_MAX:
                    raise NumericalError(
                        "Cholesky factorization failed after maximum ridge "
                        f"regularization (eps > {RIDGE_EPS_MAX:g}); input scale "
                        "is pathological",
                        code="cholesky_exhausted",
                    )

        support = support.copy()
        support.flags.writeable = False
        self.support_ = support
        self.bandwidth_ = float(h)
        self.covariance_ = regularized
        self.chol_lower_ = chol
        self.log_norm_ = float(-np.sum(np.log(np.diag(chol))) - 0.5 * d * LOG_2PI)
        self.count_ = support.shape[0]
        self.dim_ = d
        # Transposed inverse Cholesky factor: whitening a row block is then
        # one GEMM, ``(q - center) @ inv(L).T``.
        self._whitener = np.linalg.inv(chol).T
        # Whitened support, centered on the support mean so that kernel
        # exponents are computed in well-conditioned local coordinates and
        # jointly translated inputs whiten to identical values.
        self._center = support.mean(axis=0)
        self._support_aug = _augmented_support(
            (support - self._center) @ self._whitener
        )
        self._support_sq_max = -2.0 * self._support_aug[: self.count_, -1].min()
        return self

    # -- queries -----------------------------------------------------------

    def _check_queries(self, X) -> np.ndarray:
        X = check_matrix(X, "queries", keep_float32=True)
        if X.shape[1] != self.dim_:
            raise ValidationError(
                f"query dim {X.shape[1]} does not match model dim {self.dim_}",
                code="dim_mismatch",
            )
        return X

    def score_samples(self, X, *, exclude=None) -> np.ndarray:
        """Log-density of the kernel mixture at each query row.

        ``exclude`` optionally holds, per query row, one support index whose
        kernel is left out, or ``-1`` to keep all; rows with an exclusion
        average over ``M - 1`` kernels (leave-self-out). ``X`` may be
        float32; its rows are widened to float64 a chunk at a time, exactly,
        so the result equals that of the widened queries. Finite for all
        finite queries: a chunk is summed without the log-sum-exp max shift
        only when every row has a kernel exponent of at least -600 and no
        exponent can reach 1; otherwise the largest exponent always survives
        the shift.
        """
        X = self._check_queries(X)
        n = X.shape[0]
        log_count = np.full(n, np.log(self.count_))
        if exclude is not None:
            exclude = np.asarray(exclude)
            if exclude.shape != (n,) or exclude.dtype.kind not in "iu" or np.any(
                (exclude < -1) | (exclude >= self.count_)
            ):
                raise ValidationError(
                    f"exclude needs one index in [-1, {self.count_}) per query row",
                    code="index_out_of_range",
                )
            if np.any(exclude >= 0):
                if self.count_ < 2:
                    raise ValidationError(
                        "leaving a kernel out needs at least 2 kernels",
                        code="bad_batch_spec",
                    )
                log_count[exclude >= 0] = np.log(self.count_ - 1)
        out = np.empty(n)
        slack = _rounding_slack(self.dim_)
        probe = slice(0, self.count_, -(-self.count_ // _PROBE_COLUMNS))
        chunks = _kernel_exponents(
            X, self._center, self._support_aug, self._whitener, exclude
        )
        for rows, aug, expo in chunks:
            w_sq_max = -2.0 * aug[:, -2].min()
            if (
                slack * (w_sq_max + self._support_sq_max) < 1.0
                and expo[:, probe].max(axis=1).min() >= _SHIFT_FREE_FLOOR
            ):
                out[rows] = np.log(np.exp(expo, out=expo).sum(axis=1))
            else:
                out[rows] = _logsumexp(expo, axis=1)
        return self.log_norm_ + out - log_count


def fit_kde(dataset, spec: BandwidthSpec | None = None) -> GaussianKde:
    """Fit a :class:`GaussianKde` to an embedding dataset (or raw matrix)."""
    spec = spec or BandwidthSpec()
    data = getattr(dataset, "data", dataset)
    return GaussianKde(scale_c=spec.scale_c).fit(data)


def log_mean_exp(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Stable ``log(mean(exp(values)))`` along ``axis``.

    Exact identity when the axis has length one, which keeps single-batch
    density averages bit-identical to the underlying log-density.
    """
    values = np.array(values, dtype=np.float64)
    k = values.shape[axis]
    if k == 1:
        return values.max(axis=axis)
    return _logsumexp(values, axis) - np.log(k)


def nearest_sq_dists(queries: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each query row to its nearest support
    row, bit-identical to a direct-difference brute force.

    Identity-kernel exponents on data centred at the support mean keep, per
    query, every support row within the GEMM rounding bound
    ``4 (d+2) eps (|w|^2 + max |s|^2)`` of the largest exponent; only these
    candidates are measured by direct differences of the raw rows. Query
    rows may be float32 and are widened as they are read; ``support`` is
    float64.
    """
    m, d = support.shape
    center = support.mean(axis=0)
    centered = support - center
    slack = _rounding_slack(d)
    support_sq_max = np.einsum("ij,ij->i", centered, centered).max()
    out = np.full(queries.shape[0], np.inf)
    # Per row beyond the engine's buffers: the candidate mask (m bytes), the
    # query and support rows gathered for a candidate (2d), a few scalars.
    chunks = _kernel_exponents(
        queries, center, _augmented_support(centered), extra=2 * d + m // 8 + 4
    )
    for rows, aug, expo in chunks:
        w_sq = -2.0 * aug[:, -2]
        cut = expo.max(axis=1) - slack * (w_sq + support_sq_max)
        r, c = np.nonzero(expo >= cut[:, None])
        # Candidates, a chunk's worth at a time, are differenced in ``aug``,
        # which is free once the exponents are formed.
        for start in range(0, r.size, len(aug)):
            rb, cb = r[start : start + len(aug)], c[start : start + len(aug)]
            diff = aug[: rb.size, :d]
            np.subtract(queries[rows][rb], support[cb], out=diff)
            np.square(diff, out=diff)
            np.minimum.at(out[rows], rb, diff.sum(axis=1))
    return out


# -- kernel engine --------------------------------------------------------------

# The support operand is padded to whole blocks of this many rows: BLAS
# kernels accumulate a trailing partial block of output columns in another
# order, which would make a query's exponents depend on its row position.
_SUPPORT_BLOCK = 8


def _augmented_support(s: np.ndarray) -> np.ndarray:
    """Rows ``[s, 1, -|s|^2/2]``, then ``[0, ..., 0, -inf]`` to a whole block."""
    m, d = s.shape
    aug = np.zeros((-(-m // _SUPPORT_BLOCK) * _SUPPORT_BLOCK, d + 2))
    aug[:m, :d] = s
    aug[:m, d] = 1.0
    aug[:, d + 1] = -np.inf
    aug[:m, d + 1] = -0.5 * np.einsum("ij,ij->i", s, s)
    return aug


def _rounding_slack(dim: int) -> float:
    """GEMM rounding bound of a kernel exponent per unit of ``|w|^2 + |s|^2``."""
    return 4 * (dim + 2) * np.finfo(np.float64).eps


def _kernel_exponents(
    queries, center, support_aug, whitener=None, exclude=None, *, extra=0
):
    """Yield ``(rows, aug, expo)`` for consecutive chunks of query rows.

    ``aug`` holds the rows ``[w, -|w|^2/2, 1]``, where ``w`` is
    ``queries[rows] - center``, times ``whitener`` if one is given, and
    ``expo[i, j] = -|w_i - s_j|^2 / 2`` comes from one GEMM of ``aug``
    against the augmented support. Where ``exclude[i] >= 0``, entry
    ``(i, exclude[i])`` is ``-inf``. Float32 query rows are widened as they
    are centred, straight into float64 buffers, so no temporary the size of
    ``queries`` is formed. ``aug`` and ``expo`` are views of two buffers
    that the next chunk overwrites; the caller may use them as scratch
    until then. Chunks hold ``_CHUNK_ELEMS // (m + k + extra)`` rows:
    ``extra`` counts the caller's own temporaries per row. Whitening centres
    the rows in the exponent buffer, which grows to ``d`` columns when the
    support has fewer rows (``m < d``).
    """
    n = queries.shape[0]
    m, k = support_aug.shape
    d = k - 2
    step = max(1, min(n, _CHUNK_ELEMS // (m + k + extra)))
    aug_buf = np.ones((step, k))
    expo_buf = np.empty(step * (m if whitener is None else max(m, d)))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        count = rows.stop - start
        aug, expo = aug_buf[:count], expo_buf[: count * m].reshape(count, m)
        w = aug[:, :d]
        if whitener is None:
            np.subtract(queries[rows], center, out=w)
        else:
            centred = expo_buf[: count * d].reshape(count, d)
            np.subtract(queries[rows], center, out=centred)
            np.matmul(centred, whitener, out=w)
        aug[:, d] = -0.5 * np.einsum("ij,ij->i", w, w)
        np.matmul(aug, support_aug.T, out=expo)
        if exclude is not None:
            hit = np.flatnonzero(exclude[rows] >= 0)
            expo[hit, exclude[rows][hit]] = -np.inf
        yield rows, aug, expo


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    """Stable ``log(sum(exp(values)))`` along ``axis``; overwrites ``values``."""
    peak = values.max(axis=axis)
    shifted = np.subtract(values, np.expand_dims(peak, axis), out=values)
    np.exp(shifted, out=shifted)
    return peak + np.log(shifted.sum(axis=axis))
