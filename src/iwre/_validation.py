"""Input validation helpers and the estimator parameter protocol.

Estimator classes in this package follow the scikit-learn convention
(``get_params`` / ``set_params``, constructor arguments stored verbatim)
without depending on scikit-learn itself; :class:`ParamsMixin` implements
just enough of the protocol for the estimators to compose with sklearn
pipelines and ``clone``.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import numpy as np

from .errors import ValidationError


# Elements per block of the finiteness check: it forms no array-sized mask.
_FINITE_BLOCK_ELEMS = 1 << 16


def first_non_finite_row(arr: np.ndarray) -> int | None:
    """Index of the first row of a 2-D array that holds NaN or Inf, or None."""
    step = max(1, _FINITE_BLOCK_ELEMS // max(1, arr.shape[1]))
    for start in range(0, arr.shape[0], step):
        finite = np.isfinite(arr[start : start + step]).all(axis=1)
        if not finite.all():
            return start + int(np.argmin(finite))
    return None


def check_matrix(
    x, name: str = "data", *, min_rows: int = 1, keep_float32: bool = False
) -> np.ndarray:
    """Coerce ``x`` to a finite, C-contiguous float64 matrix.

    With ``keep_float32`` a float32 array keeps its dtype, so a block of
    rows read from a float32 file is not widened as a whole; the caller
    widens it where it enters arithmetic. Raises :class:`ValidationError`
    with a stable ``code`` naming the first offending row when the input is
    empty, not 2-D, or contains NaN/Inf.
    """
    if keep_float32 and getattr(x, "dtype", None) == np.float32:
        arr = np.asarray(x)
    else:
        arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} must be a 2-D matrix, got ndim={arr.ndim}", code="bad_shape"
        )
    if arr.shape[0] < min_rows or arr.shape[1] < 1:
        raise ValidationError(
            f"{name} must have at least {min_rows} row(s) and 1 column, "
            f"got shape {arr.shape}",
            code="empty_dataset",
        )
    row = first_non_finite_row(arr)
    if row is not None:
        raise ValidationError(
            f"{name} contains a non-finite value at row {row}", code="non_finite"
        )
    return np.ascontiguousarray(arr)


def check_vector(x, name: str = "values") -> np.ndarray:
    """Coerce ``x`` to a finite float64 vector."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(
            f"{name} must be 1-D, got ndim={arr.ndim}", code="bad_shape"
        )
    if not np.isfinite(arr).all():
        row = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValidationError(
            f"{name} contains a non-finite value at index {row}", code="non_finite"
        )
    return arr


def check_positive(value, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be positive, got {value}", code="bad_param")
    return value


def check_count(value, name: str, minimum: int = 1) -> int:
    try:
        count = int(value)
        valid = count == value and count >= minimum
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValidationError(
            f"{name} must be an integer >= {minimum}, got {value!r}", code="bad_param"
        )
    return count


def check_threads(value) -> int | None:
    """A worker-thread count: a positive integer, or ``None`` for the default."""
    return None if value is None else check_count(value, "threads")


def read_json_object(path, code: str, required=()) -> dict:
    """Parse a JSON file whose top level is an object holding ``required`` keys.

    Any malformation raises :class:`ValidationError` with ``code``.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}", code=code) from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: top level must be a JSON object", code=code)
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValidationError(f"{path}: missing keys {missing}", code=code)
    return payload


class ParamsMixin:
    """Minimal sklearn-compatible parameter handling for estimators."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValidationError(
                    f"unknown parameter {key!r} for {type(self).__name__}",
                    code="bad_param",
                )
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
