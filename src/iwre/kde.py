"""Multivariate Gaussian kernel density estimation and the kernel engine.

A fitted model places one Gaussian kernel, with covariance ``h^2 * Sigma``,
at every support row. ``h`` comes from a scaled Scott rule and ``Sigma`` is
the sample covariance of the support plus a fixed ridge (``RIDGE_EPS``
times the mean variance), factorized once or refused. Queries are
centred on the support mean and whitened by the inverse of the Cholesky
factor of ``h^2 * Sigma`` (stored once at fit, so whitening is one GEMM),
so each kernel exponent is ``-|w - s|^2 / 2``. The model keeps its
support once, as the C-contiguous ``(d + 2) x M`` GEMM operand of
:func:`_augmented_support`. One engine (:func:`_kernel_exponents`) forms
the exponents a tile at a time: a block of query rows is centred and
whitened once, then one GEMM per tile gives its exponents against at most
``_TILE_COLS`` (256) support columns, in ascending column order.
:meth:`GaussianKde.score_samples` sums each row over its tiles while each
tile is in cache, a tile's row sums by one GEMV against a vector of ones
(below). nn_l2 is the zero-bandwidth limit (:func:`nearest_sq_dists`):
its tiles span the whole support, because its candidate cut needs each
row's maximum over every target; they are reduced by maximum and
recomputed exactly. Float32 queries are widened to float64 a block at a
time, as they are centred, and results equal those of the widened queries.

Every exponent is at most 0, so the log-sum-exp's max shift only guards
against underflow. Every row block is summed without it first, and only
the rows whose plain sum falls outside ``[e^-600, inf)``
(``_SHIFT_FREE_FLOOR``), because terms underflowed, an exponent
overflowed or the sum is NaN, are summed again: their block's tiles are
formed anew from its whitened rows, bit for bit, and reduced by a
running-max log-sum-exp, which for a support of one tile is bit-identical
to the max-shifted reduction of :func:`_logsumexp`. Plain sums differ from
shifted ones only in the last bits.

Determinism contract: row blocks and column tiles are fixed by the shapes
of the queries and the support alone, and each query's kernel sum reduces
its tiles in ascending column order, so identical inputs give
bit-identical log-densities for any number of worker threads. Whether a
row is summed again depends on that row alone, so a far row leaves its
neighbours' bits as they are. BLAS sums a trailing partial group of GEMM
or GEMV outputs in another order, so support columns and block rows come
in whole groups of ``_SUPPORT_BLOCK`` (8), padded with ``-inf`` columns
and zero queries: a query's bits do not depend on its position in its
block. Splitting the queries into other blocks may change the last bits:
BLAS may pick other kernels for other block sizes (a row scored alone
keeps its bits in the tests, at d = 2 and 8).

Memory: one budget, ``_TILE_ELEMS`` float64 elements (1 MiB). A KDE row
block holds the largest multiple of 8 rows that lets the exponent tile,
the whitening scratch and the query operand each fit it (512 up to
d = 254, 432 at d = 300), whatever the support size; the GEMV's row sums
and a second sum's running sum and maximum take a few vectors of the
block's rows. An nn_l2 chunk holds as many rows as let all its
temporaries, candidate mask and gathers included, fit it. A scoring
worker's scratch is O(tile).

Threading: the row-chunk pool in :mod:`iwre.scoring` is the only source of
parallelism. Scoring and every fit, also one called directly, pin every
loaded OpenBLAS to one thread (:mod:`iwre._blas`), so each GEMM and GEMV
here runs on the calling thread alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._blas import single_threaded_blas
from ._validation import ParamsMixin, check_count, check_matrix, check_positive
from .errors import NumericalError, ValidationError

LOG_2PI = float(np.log(2.0 * np.pi))

# The ridge fit adds to a sample covariance, relative to its mean variance.
RIDGE_EPS = 1e-9

# Tile width and buffer budget in float64 elements (see "Memory" above).
# Other values change KDE results only in the last bits.
_TILE_COLS = 256
_TILE_ELEMS = 1 << 17

# A row whose plain kernel sum is at least e^-600 keeps it: a term that can
# move its rounding is then at least e^-636 (eps is e^-36), still normal
# (above e^-708), so subnormal or zero terms cost no precision. Any other
# row, an overflowed or NaN one too, is summed again with the max shift.
_SHIFT_FREE_FLOOR = -600.0


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
    bandwidth_ : float
        Bandwidth multiplier ``h``.
    covariance_ : (d, d) ndarray
        Kernel covariance ``Sigma`` (before the ``h^2`` scaling), ridged by fit.
    chol_lower_ : (d, d) ndarray
        Lower Cholesky factor of ``h^2 * Sigma``.
    log_norm_ : float
        Log of the per-kernel Gaussian normalizer,
        ``-sum(log(diag(chol_lower_))) - (d/2) * log(2*pi)``.
    count_ : int
        Number of kernels M.
    dim_ : int
        Dimension d.

    The model keeps no copy of the array it was fitted on: the kernel
    centres are held once, centred on their mean and whitened, in the form
    scoring reads. A caller that needs the raw centres keeps its own array.
    """

    def __init__(self, scale_c: float | None = BandwidthSpec.scale_c):
        self.scale_c = scale_c

    # -- fitting -----------------------------------------------------------

    @single_threaded_blas()
    def fit(self, X, y=None) -> "GaussianKde":
        """Fit bandwidth, covariance and Cholesky factor to the support X."""
        X = check_matrix(X, "X")
        d = X.shape[1]
        h = scott_bandwidth(self.scale_c, X.shape[0], d)
        # _finalize refuses an overflowed covariance; numpy's warnings would repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            cov = sample_covariance(X)
            trace_scale = float(np.trace(cov)) / d or 1.0  # 1 for a zero covariance
            cov = cov + (RIDGE_EPS * trace_scale) * np.eye(d)
        return self._finalize(X, h, cov)

    @classmethod
    @single_threaded_blas()
    def from_parameters(cls, support, bandwidth_h, covariance) -> "GaussianKde":
        """Build a model directly from centers, bandwidth and covariance.

        The covariance is used as given, with no ridge: one that is not
        positive definite raises :class:`~iwre.errors.NumericalError`
        ``cholesky_exhausted``.
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
        covariance = (covariance + covariance.T) / 2.0
        return cls(scale_c=None)._finalize(support, bandwidth_h, covariance)

    def _finalize(self, support, h, cov):
        d = support.shape[1]
        try:
            chol = np.linalg.cholesky((h * h) * cov)
            # Transposed inverse Cholesky factor: whitening a row block is
            # then one GEMM, ``(q - center) @ inv(L).T``.
            whitener = np.linalg.inv(chol).T
            failed = not (np.isfinite(chol).all() and np.isfinite(whitener).all())
        except np.linalg.LinAlgError:
            failed = True
        if failed:
            raise NumericalError(
                "the kernel covariance has no finite Cholesky factor and inverse: "
                "it is not positive definite, or the input scale is pathological",
                code="cholesky_exhausted",
            )

        self.bandwidth_ = float(h)
        self.covariance_ = cov
        self.chol_lower_ = chol
        self.log_norm_ = float(-np.sum(np.log(np.diag(chol))) - 0.5 * d * LOG_2PI)
        self.count_ = support.shape[0]
        self.dim_ = d
        self._whitener = whitener
        # Whitened support, centered on the support mean so that kernel
        # exponents are computed in well-conditioned local coordinates and
        # jointly translated inputs whiten to identical values.
        self._center = support.mean(axis=0)
        self._support = _augmented_support((support - self._center) @ self._whitener)
        return self

    # -- queries -----------------------------------------------------------

    def score_samples(self, X, *, exclude=None) -> np.ndarray:
        """Log-density of the kernel mixture at each query row.

        ``exclude`` optionally holds, per query row, one support index whose
        kernel is left out, or ``-1`` to keep all; rows with an exclusion
        average over ``M - 1`` kernels (leave-self-out). ``X`` may be
        float32; its rows are widened to float64 a block at a time, exactly,
        so the result equals that of the widened queries. Finite for all
        finite queries: each row is summed without the log-sum-exp max
        shift, and a row whose sum is below e^-600, infinite or NaN is
        summed again, shifted by a running maximum over its tiles, so its
        largest exponent always survives.
        """
        X = check_matrix(X, "queries", keep_float32=True)
        if X.shape[1] != self.dim_:
            raise ValidationError(
                f"query dim {X.shape[1]} does not match model dim {self.dim_}",
                code="dim_mismatch",
            )
        return self._log_density(X, exclude)

    def _log_density(self, X, exclude=None) -> np.ndarray:
        """:meth:`score_samples` of queries it has checked, or that are rows
        of an :class:`~iwre.dataset.EmbeddingDataset` of the model's dim."""
        n = X.shape[0]
        if exclude is not None:
            exclude = np.asarray(exclude)
            if exclude.shape != (n,) or exclude.dtype.kind not in "iu" or np.any(
                (exclude < -1) | (exclude >= self.count_)
            ):
                raise ValidationError(
                    f"exclude needs one index in [-1, {self.count_}) per query row",
                    code="index_out_of_range",
                )
            if self.count_ < 2 and np.any(exclude >= 0):
                raise ValidationError(
                    "leaving a kernel out needs at least 2 kernels",
                    code="bad_batch_spec",
                )
        # Per row: the sum of exp(exponent - peak), and the peak: 0 for a
        # plain sum, else the running maximum of its second sum.
        total, peak = np.zeros(n), np.zeros(n)
        ones = np.ones(_TILE_COLS)
        floor = np.exp(_SHIFT_FREE_FLOOR)
        blocks = _kernel_exponents(
            X, self._center, self._support, self._whitener, exclude
        )
        with np.errstate(over="ignore"):  # an overflowed row is summed again
            for rows, aug, tiles in blocks:
                count = rows.stop - rows.start
                sums = np.empty(len(aug))
                for expo in tiles():
                    # Row sums of the whole padded tile by one GEMV.
                    np.exp(expo, out=expo)
                    np.matmul(expo, ones[: expo.shape[1]], out=sums)
                    total[rows] += sums[:count]
                plain = total[rows]
                again = ~((plain >= floor) & (plain < np.inf))  # NaN too
                if again.any():
                    plain[again], peak[rows][again] = _shifted_sums(tiles(), again)
        # Made after the tiles' buffers are freed, so it adds nothing to the peak.
        log_count = np.full(n, np.log(self.count_))
        if exclude is not None and self.count_ > 1:  # else none is left out
            log_count[exclude >= 0] = np.log(self.count_ - 1)
        return self.log_norm_ + (peak + np.log(total)) - log_count


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
    candidates are measured by direct differences of the raw rows. A row
    whose exponents overflow (values near 1e153 and beyond) takes every
    support row as a candidate, so it is exact while its distances are
    finite and infinite once they overflow. Query rows may be float32 and
    are widened as they are read; ``support`` is float64.
    """
    m, d = support.shape
    center = support.mean(axis=0)
    centered = support - center
    slack = 4 * (d + 2) * np.finfo(np.float64).eps  # per unit of |w|^2 + |s|^2
    support_sq_max = np.einsum("ij,ij->i", centered, centered).max()
    out = np.full(queries.shape[0], np.inf)
    # One tile spans the support. Per row beyond the engine's two buffers:
    # the candidate mask (m bytes), the query and support rows gathered for
    # a candidate (2d), a few scalars.
    support_aug = _augmented_support(centered)
    step = _TILE_ELEMS // (sum(support_aug.shape) + 2 * d + m // 8 + 4)
    chunks = _kernel_exponents(
        queries, center, support_aug, rows=step, cols=support_aug.shape[1]
    )
    for rows, aug, tiles in chunks:
        count = rows.stop - rows.start
        (expo,) = tiles()
        aug, expo = aug[:count], expo[:count]
        w_sq = -2.0 * aug[:, -2]
        cut = expo.max(axis=1) - slack * (w_sq + support_sq_max)
        # A cut that overflowed or is NaN (inf - inf) keeps every real column.
        cut[~np.isfinite(cut)] = -np.inf
        mask = expo[:, :m] < cut[:, None]
        r, c = np.nonzero(np.logical_not(mask, out=mask))
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

# Support columns and query rows come in whole groups of this many: BLAS
# kernels accumulate a trailing partial group of GEMM output columns, or of
# GEMV output rows, in another order, which would make a query's result
# depend on its position.
_SUPPORT_BLOCK = 8


def _round_up(count: int) -> int:
    return -(-count // _SUPPORT_BLOCK) * _SUPPORT_BLOCK


def _augmented_support(s: np.ndarray) -> np.ndarray:
    """The ``(d + 2) x M_pad`` operand with rows ``s^T``, ``1`` and
    ``-|s|^2/2``; padding columns are ``[0, ..., 0, -inf]``, to whole blocks."""
    m, d = s.shape
    aug = np.zeros((d + 2, _round_up(m)))
    aug[:d, :m] = s.T
    aug[d, :m] = 1.0
    aug[d + 1] = -np.inf
    aug[d + 1, :m] = -0.5 * np.einsum("ij,ij->i", s, s)
    return aug


def _kernel_exponents(
    queries, center, support, whitener=None, exclude=None, *, rows=None, cols=None
):
    """Yield ``(rows, aug, tiles)`` for each row block, in order, where
    ``tiles()`` yields the block's tiles of kernel exponents in ascending
    column order; until the next block, it may be called again to form
    them anew, bit for bit.

    ``support`` is an operand of :func:`_augmented_support`. ``aug`` holds
    the block's rows ``[w, -|w|^2/2, 1]``, where ``w`` is ``queries[rows] -
    center``, times ``whitener`` if one is given, and each tile ``expo``,
    ``expo[i, j] = -|w_i - s_j|^2 / 2`` for its support columns, comes from
    one GEMM of ``aug`` against those columns of ``support``. Where
    ``exclude[i] >= 0``, that column is ``-inf`` in the tile that holds it.
    Float32 query rows are widened as they are centred, straight into
    float64 buffers, so no temporary the size of ``queries`` is formed.
    ``aug`` and ``expo`` are views of two buffers: the next block overwrites
    ``aug``, and the next tile ``expo``, which the caller may use as scratch
    until then.

    Tiles are ``cols`` support columns wide (default ``_TILE_COLS``).
    Blocks hold ``rows`` query rows (default: the largest multiple of
    ``_SUPPORT_BLOCK`` that lets each buffer, the whitening scratch
    included, fit ``_TILE_ELEMS``, or one group); a shorter last block is
    padded with zero queries to whole groups, within the buffers, so
    ``aug`` and ``expo`` may have rows past those ``rows`` selects.
    """
    n = queries.shape[0]
    k, m = support.shape
    d = k - 2
    cols = min(m, _TILE_COLS if cols is None else cols)
    width = cols if whitener is None else max(cols, d)
    if rows is None:
        rows = _TILE_ELEMS // max(width, k) // _SUPPORT_BLOCK * _SUPPORT_BLOCK
        rows = max(_SUPPORT_BLOCK, rows)
    rows = max(1, min(rows, _round_up(n)))
    aug_buf = np.ones((rows, k))
    tile_buf = np.empty(rows * width)

    def tiles(aug, hit, hit_col):
        for c0 in range(0, m, cols):
            c1 = min(c0 + cols, m)
            expo = tile_buf[: len(aug) * (c1 - c0)].reshape(len(aug), c1 - c0)
            np.matmul(aug, support[:, c0:c1], out=expo)
            if hit is not None:
                inside = (hit_col >= c0) & (hit_col < c1)
                expo[hit[inside], hit_col[inside] - c0] = -np.inf
            yield expo

    for start in range(0, n, rows):
        block = slice(start, min(start + rows, n))
        count = block.stop - start
        aug = aug_buf[: min(rows, _round_up(count))]
        w = aug[:, :d]
        centred = w if whitener is None else tile_buf[: w.size].reshape(w.shape)
        np.subtract(queries[block], center, out=centred[:count])
        centred[count:] = 0.0  # padding: zero queries
        if whitener is not None:
            np.matmul(centred, whitener, out=w)
        aug[:, d] = -0.5 * np.einsum("ij,ij->i", w, w)
        hit = hit_col = None
        if exclude is not None:
            hit = np.flatnonzero(exclude[block] >= 0)
            hit_col = exclude[block][hit]
        yield block, aug, partial(tiles, aug, hit, hit_col)


def _shifted_sums(tiles, again):
    """The sums of ``exp(expo - peak)`` over a block's ``tiles``, with
    ``peak`` each row's running maximum, and the peaks, of the rows where
    ``again`` is set. Every row of the block is reduced, each on its own."""
    count = len(again)
    total, peak = np.zeros(count), np.full(count, -np.inf)
    for expo in tiles:
        expo = expo[:count]
        raised = np.maximum(peak, expo.max(axis=1))
        total *= np.exp(peak - raised)
        peak = raised
        np.subtract(expo, peak[:, None], out=expo)
        total += np.exp(expo, out=expo).sum(axis=1)
    return total[again], peak[again]


def _logsumexp(values: np.ndarray, axis: int) -> np.ndarray:
    """Stable ``log(sum(exp(values)))`` along ``axis``; overwrites ``values``."""
    peak = values.max(axis=axis)
    shifted = np.subtract(values, np.expand_dims(peak, axis), out=values)
    np.exp(shifted, out=shifted)
    return peak + np.log(shifted.sum(axis=axis))
