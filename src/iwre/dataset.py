"""Embedding dataset container and its on-disk formats.

Binary layout (little-endian throughout)::

    magic   4 bytes  b"IWRE"
    version u16      currently 1
    dtype   u8       0 = float32, 1 = float64
    rows    u64      number of embedding vectors N
    dim     u32      embedding dimension d
    payload rows * dim values, row-major

A binary file is read once, in fixed blocks, straight into one array of the
dtype its payload stores, and each block is hashed as it arrives. A float32
payload thus stays float32 in memory, half the size of a float64 copy.
Arithmetic in this package is double precision, so scoring widens float32
rows to float64, exactly, where they enter it: per chunk of queries, per
gathered batch or selected row, and once for the small target. Scores are
therefore the same bits whether a prior is stored as float32 or as the same
values in float64. The CSV format is UTF-8 text, one embedding per line,
comma-separated, no header; it loads as float64. Row metadata lives in a
separate CSV sidecar with header ``episode_id,step_index,episode_length,
task_label`` (empty ``task_label`` means unlabeled).
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._validation import check_matrix, first_non_finite_row
from .errors import ValidationError

MAGIC = b"IWRE"
FORMAT_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_HEADER = struct.Struct("<4sHBQI")  # magic, version, dtype code, rows, dim
_READ_BLOCK = 1 << 20  # bytes per read of a binary payload, or per gathered block

METADATA_FIELDS = ("episode_id", "step_index", "episode_length", "task_label")


def content_id(data: bytes | np.ndarray) -> str:
    """Short content hash used as the default identity of loaded data.

    An array is hashed as its C-contiguous buffer, the bytes ``tobytes``
    would give, without copying a contiguous array.
    """
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data)
    return _short_id(hashlib.sha256(data))


def _short_id(digest) -> str:
    return "sha256:" + digest.hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class EmbeddingDataset:
    """An immutable N x d matrix of embedding vectors.

    ``data`` is marked read-only; fitted models and scorers may therefore
    share a dataset across worker threads freely. An array passed in is
    coerced to float64. :func:`load_embeddings` instead keeps a binary
    file's payload dtype, so ``data`` may be float32; scoring widens its
    rows to float64 where they enter arithmetic. ``source_id`` is an opaque
    identity string; when omitted it defaults to a hash of the array
    contents so that configuration fingerprints track the underlying data.
    """

    data: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        arr = check_matrix(self.data, "data")
        if arr is self.data and arr.flags.writeable:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        if not self.source_id:
            object.__setattr__(self, "source_id", content_id(arr))

    @classmethod
    def _wrap(cls, data: np.ndarray, source_id: str) -> "EmbeddingDataset":
        """A dataset holding ``data`` as it is: a fresh, finite 2-D array of
        float32 or float64 that no caller holds, such as a file just read."""
        data.flags.writeable = False
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "data", data)
        object.__setattr__(dataset, "source_id", source_id)
        return dataset

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.rows


@dataclass(frozen=True)
class RowMetadata:
    """Per-row episode bookkeeping for an embedding dataset."""

    episode_id: int
    step_index: int
    episode_length: int
    task_label: Optional[str] = None

    def __post_init__(self):
        if self.episode_length < 1:
            raise ValidationError(
                f"episode_length must be >= 1, got {self.episode_length}",
                code="bad_episode_length",
            )
        if not 0 <= self.step_index < self.episode_length:
            raise ValidationError(
                f"step_index {self.step_index} outside [0, {self.episode_length})",
                code="bad_step_index",
            )


def gather_rows(data: np.ndarray, idx) -> np.ndarray:
    """``data[idx]`` as a new float64 array, gathered in blocks, so rows of a
    float32 array are widened without a float32 copy of the selection."""
    out = np.empty((len(idx), data.shape[1]))
    step = max(1, _READ_BLOCK // (8 * data.shape[1]))
    for start in range(0, len(idx), step):
        out[start : start + step] = data[idx[start : start + step]]
    return out


def pair_metadata(
    dataset: EmbeddingDataset, metadata: Sequence[RowMetadata]
) -> Sequence[RowMetadata]:
    """Check that ``metadata`` rows line up one-to-one with ``dataset`` rows."""
    if len(metadata) != dataset.rows:
        raise ValidationError(
            f"metadata has {len(metadata)} rows but dataset has {dataset.rows}",
            code="row_count_mismatch",
        )
    return metadata


def _parse_header(header: bytes, file_size: int, path):
    """Validate a binary container's header; return (dtype, rows, dim)."""
    if len(header) < _HEADER.size:
        raise ValidationError(
            f"{path}: file shorter than the {_HEADER.size}-byte header",
            code="malformed_header",
        )
    magic, version, dtype_code, rows, dim = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ValidationError(
            f"{path}: bad magic bytes {magic!r} in field 'magic'",
            code="malformed_header",
        )
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"{path}: unsupported format version {version}", code="malformed_header"
        )
    if dtype_code not in _DTYPE_CODES:
        raise ValidationError(
            f"{path}: unknown dtype code {dtype_code}", code="malformed_header"
        )
    if rows == 0 or dim == 0:
        raise ValidationError(
            f"{path}: header declares an empty dataset (rows={rows}, dim={dim})",
            code="empty_dataset",
        )
    dtype = _DTYPE_CODES[dtype_code]
    expected = rows * dim * dtype.itemsize
    found = file_size - _HEADER.size
    if found != expected:
        found_rows = found // (dim * dtype.itemsize)
        raise ValidationError(
            f"{path}: payload length mismatch: header declares {rows} rows "
            f"({expected} bytes) but found {found} bytes "
            f"({found_rows} complete rows)",
            code="payload_mismatch",
        )
    return dtype, rows, dim


def read_vector_file(path) -> tuple[np.ndarray, str]:
    """Read a binary container; return its payload and the file's content id.

    The payload lands, block by block, in one native-order array of the
    dtype the file stores, and each block is hashed as it arrives, so the
    id equals :func:`content_id` of the file bytes. No finiteness check.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        dtype, rows, dim = _parse_header(header, os.fstat(fh.fileno()).st_size, path)
        digest = hashlib.sha256(header)
        data = np.empty((rows, dim), dtype.newbyteorder("="))
        payload = memoryview(data).cast("B")
        for start in range(0, len(payload), _READ_BLOCK):
            block = payload[start : start + _READ_BLOCK]
            if fh.readinto(block) != len(block):
                raise ValidationError(
                    f"{path}: file shrank while being read", code="payload_mismatch"
                )
            digest.update(block)
    if not dtype.isnative:
        data.byteswap(inplace=True)
    return data, _short_id(digest)


def _parse_csv(raw: bytes, path) -> tuple[np.ndarray, list[int]]:
    """Parse the bytes of a UTF-8 CSV embedding file read from ``path``.

    Returns the float64 matrix and, per row, its 1-based line in the file.
    Errors name both, as ``line L (row i)``; blank lines hold no row.
    """
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}", code="malformed_value") from exc
    rows: list[list[float]] = []
    lines: list[int] = []
    for lineno, line in enumerate(io.StringIO(text, newline=""), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ValidationError(
                f"{path}: line {lineno} (row {len(rows)}): {exc}",
                code="malformed_value",
            ) from exc
        if rows and len(values) != len(rows[0]):
            raise ValidationError(
                f"{path}: line {lineno} (row {len(rows)}) has {len(values)} "
                f"columns, expected {len(rows[0])}",
                code="dim_mismatch",
            )
        rows.append(values)
        lines.append(lineno)
    if not rows:
        raise ValidationError(f"{path}: no data rows", code="empty_dataset")
    return np.asarray(rows, dtype=np.float64), lines


def load_embeddings(path, format: str = "binary") -> EmbeddingDataset:
    """Load an embedding dataset, validating shape and finiteness.

    ``format`` is ``"binary"`` or ``"csv"``. The file is read once and its
    bytes hashed as they are read: the returned dataset's ``source_id`` is
    :func:`content_id` of the file bytes. A binary file keeps its payload
    dtype (float32 or float64); CSV loads as float64.
    """
    if format not in ("binary", "csv"):
        raise ValidationError(f"unknown format {format!r}", code="bad_format")
    if format == "binary":
        data, source_id = read_vector_file(path)
        lines = None
    else:
        raw = Path(path).read_bytes()
        data, lines = _parse_csv(raw, path)
        source_id = content_id(raw)
    row = first_non_finite_row(data)
    if row is not None:
        at = f"row {row}" if lines is None else f"line {lines[row]} (row {row})"
        raise ValidationError(
            f"{path}: data contains a non-finite value at {at}", code="non_finite"
        )
    return EmbeddingDataset._wrap(data, source_id)


def save_embeddings(dataset: EmbeddingDataset, path) -> None:
    """Write ``dataset`` in the binary format; float64 payload, bit-exact."""
    write_vector_file(dataset.data, path)


def write_vector_file(array: np.ndarray, path) -> None:
    """Write any 2-D float64 array in the binary container format."""
    arr = np.ascontiguousarray(array, dtype="<f8")
    if arr.ndim != 2:
        raise ValidationError("binary payload must be 2-D", code="bad_shape")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, 1, arr.shape[0], arr.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(arr).cast("B"))


def load_metadata(path) -> list[RowMetadata]:
    """Load the metadata sidecar, preserving file order."""
    with open(path, "r", newline="") as fh:
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
        for lineno, row in enumerate(reader):
            if not row:
                continue
            if len(row) != len(METADATA_FIELDS):
                raise ValidationError(
                    f"{path}: row {lineno} has {len(row)} fields, expected "
                    f"{len(METADATA_FIELDS)}",
                    code="dim_mismatch",
                )
            try:
                episode_id, step_index, episode_length = (
                    int(row[0]),
                    int(row[1]),
                    int(row[2]),
                )
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: row {lineno}: {exc}", code="malformed_value"
                ) from exc
            task_label = row[3] if row[3] != "" else None
            try:
                records.append(
                    RowMetadata(episode_id, step_index, episode_length, task_label)
                )
            except ValidationError as exc:
                raise ValidationError(
                    f"{path}: row {lineno}: {exc}", code=exc.code
                ) from exc
    if not records:
        raise ValidationError(f"{path}: no metadata rows", code="empty_dataset")
    return records


def save_metadata(records: Sequence[RowMetadata], path) -> None:
    """Write the metadata sidecar CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METADATA_FIELDS)
    for rec in records:
        writer.writerow(
            [
                rec.episode_id,
                rec.step_index,
                rec.episode_length,
                rec.task_label if rec.task_label is not None else "",
            ]
        )
    Path(path).write_text(buf.getvalue())
