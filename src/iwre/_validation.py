"""Input validation helpers and the estimator parameter protocol.

Estimator classes in this package follow the scikit-learn convention
(``get_params`` / ``set_params``, constructor arguments stored verbatim)
without depending on scikit-learn itself; :class:`ParamsMixin` implements
just enough of the protocol for the estimators to compose with sklearn
pipelines and ``clone``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import typing
from dataclasses import fields
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


def check_matrix(x, name: str = "data", *, keep_float32: bool = False) -> np.ndarray:
    """Coerce ``x`` to a finite, C-contiguous, aligned float64 matrix.

    With ``keep_float32`` query rows are kept as they are, float32 or
    unaligned (a mapped file's), and the caller widens them elementwise.
    Otherwise the matrix is aligned, copied if needed: numpy sums a long
    unaligned axis in other blocks, which can move a mean's last bit. Raises
    :class:`ValidationError` with a stable ``code`` naming the first
    offending row when the input is empty, not 2-D, or contains NaN/Inf.
    """
    if keep_float32 and getattr(x, "dtype", None) == np.float32:
        arr = np.asarray(x)
    else:
        arr = as_numbers(x, name)
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} must be a 2-D matrix, got ndim={arr.ndim}", code="bad_shape"
        )
    if arr.size == 0:
        raise ValidationError(
            f"{name} must have at least 1 row and 1 column, got shape {arr.shape}",
            code="empty_dataset",
        )
    row = first_non_finite_row(arr)
    if row is not None:
        raise ValidationError(
            f"{name} contains a non-finite value at row {row}", code="non_finite"
        )
    return np.require(arr, requirements="C" if keep_float32 else "CA")


def as_numbers(values, name: str, dtype=np.float64) -> np.ndarray:
    """``values``, an array or nested lists of integers (and for float64,
    floats), as an array of ``dtype``, int64 or float64, not copied when it is
    one; anything else, a bool or a value beyond ``dtype`` is refused with
    ``malformed_value``: nothing is truncated, wrapped or parsed."""
    kinds = "iu" if np.dtype(dtype).kind == "i" else "iuf"
    try:
        arr = np.asarray(values)
        if isinstance(values, (list, tuple)):  # element types; a held array's dtype
            level, types = values, set()
            for _ in range(arr.ndim - 1):
                level = list(level)
                if any(issubclass(t, np.ndarray) for t in set(map(type, level))):
                    types |= {e.dtype.type for e in level if isinstance(e, np.ndarray)}
                    level = [e for e in level if not isinstance(e, np.ndarray)]
                level = itertools.chain.from_iterable(level)
            types.update(map(type, level))
            if arr.dtype.kind not in kinds:  # int64 with uint64 values made float64
                arr = np.array(values, dtype=object)
        else:
            types = set(map(type, arr.flat)) if arr.dtype == object else {arr.dtype.type}
        fits = kinds == "iuf" or arr.dtype != np.uint64 or arr.max(initial=0) >> 63 == 0
        if fits and all(np.dtype(t).kind in kinds for t in types):
            return arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):  # ragged, or beyond dtype
        pass
    kind = "integers that fit int64" if kinds == "iu" else "numbers"
    raise ValidationError(f"{name} must be {kind}", code="malformed_value")


def check_vector(x, name: str = "values", dtype=np.float64) -> np.ndarray:
    """``x`` as a finite 1-D array of ``dtype`` (:func:`as_numbers`)."""
    arr = as_numbers(x, name, dtype)
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


def read_only(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, the coerced form of a caller's ``given`` (``None`` when no
    caller holds it), made read-only to be held: copied first if it is
    writeable and shares memory with ``given``, so the caller's array is
    neither frozen nor aliased; else adopted."""
    shared = isinstance(given, np.ndarray) and np.may_share_memory(arr, given)
    if shared and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _convert(value, kind):
    """``value`` as ``kind``, or None: a bool is only a bool, ``kind(value)``
    must equal ``value``, and a float must be finite. An array compares
    elementwise and is refused, so the comparison stays in the ``try``."""
    if kind is not bool and isinstance(value, (bool, np.bool_)):
        return None
    try:
        converted = kind(value)
        if converted == value and (kind is not float or np.isfinite(converted)):
            return converted
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def check_real(value, name: str, code: str = "bad_param", positive=False) -> float:
    """``value`` as a finite float, positive if asked, refused with ``code``
    when :func:`_convert` refuses it (a bool, ``"0.5"``)."""
    number = _convert(value, float)
    if number is None or (positive and number <= 0.0):
        kind = "positive" if positive else "finite"
        raise ValidationError(f"{name} must be a {kind} number, got {value!r}",
                              code=code)
    return number


def check_count(value, name: str, minimum: int = 1, maximum: float = np.inf) -> int:
    """``value`` as an int in ``[minimum, maximum]``, else ``bad_param``: a
    bool is never a count, ``4096.0`` is ``4096``, ``"4"`` and ``4.5`` fail."""
    count = _convert(value, int)
    if count is None or not minimum <= count <= maximum:
        bound = f">= {minimum}" if maximum == np.inf else f"in [{minimum}, {maximum}]"
        raise ValidationError(
            f"{name} must be an integer {bound}, got {value!r}", code="bad_param"
        )
    return count


def check_threads(value) -> int | None:
    """A worker-thread count: a positive integer, or ``None`` for the default."""
    return None if value is None else check_count(value, "threads")


@functools.cache
def field_types(cls) -> dict:
    """``{name: (type, admits None)}`` of a dataclass's fields, resolved once."""
    hints = typing.get_type_hints(cls)
    types = {}
    for f in fields(cls):
        args = typing.get_args(hints[f.name])
        kinds = [a for a in args if a is not type(None)]
        types[f.name] = (kinds[0] if kinds else hints[f.name], len(kinds) < len(args))
    return types


def coerce_fields(obj, what: str, names=None) -> None:
    """Convert each field of the dataclass ``obj``, or each of ``names``, to
    its annotated type.

    A value is refused with ``bad_param`` when :func:`_convert` refuses it
    (``1.5`` or ``"4"`` for an int, ``7`` for a str, ``"x"`` for an enum, a
    bool for a number, a float that is not finite) or it is ``None`` for a
    field that does not admit ``None``. Fixed types keep fingerprints and
    outputs independent of how a value was given.
    """
    for name, (kind, nullable) in field_types(type(obj)).items():
        value = getattr(obj, name, None)  # a field not yet set is None
        if (value is None and nullable) or (names is not None and name not in names):
            continue
        converted = _convert(value, kind)
        if converted is None:
            raise ValidationError(
                f"bad {what} {name}={value!r}: expected {kind.__name__}",
                code="bad_param",
            )
        object.__setattr__(obj, name, converted)


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with sorted keys, a 2-space indent and a
    final newline. Streamed: ``dumps`` would hold every encoded chunk."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
