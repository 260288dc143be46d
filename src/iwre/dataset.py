"""Embedding dataset container and its on-disk formats.

Binary layout (little-endian throughout)::

    magic   4 bytes  b"IWRE"
    version u16      currently 1
    dtype   u8       0 = float32, 1 = float64
    rows    u64      number of embedding vectors N
    dim     u32      embedding dimension d
    payload rows * dim values, row-major

Single-precision payloads are widened to float64 on load; all in-memory
arithmetic in this package is double precision. The CSV format is UTF-8
text, one embedding per line, comma-separated, no header. Row metadata
lives in a separate CSV sidecar with header ``episode_id,step_index,
episode_length,task_label`` (empty ``task_label`` means unlabeled).
"""

from __future__ import annotations

import csv
import hashlib
import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._validation import check_matrix
from .errors import ValidationError

MAGIC = b"IWRE"
FORMAT_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_HEADER = struct.Struct("<4sHBQI")  # magic, version, dtype code, rows, dim

METADATA_FIELDS = ("episode_id", "step_index", "episode_length", "task_label")


def content_id(data: bytes | np.ndarray) -> str:
    """Short content hash used as the default identity of loaded data."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return "sha256:" + hashlib.sha256(data).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class EmbeddingDataset:
    """An immutable N x d matrix of embedding vectors.

    ``data`` is always float64 and marked read-only; fitted models and
    scorers may therefore share a dataset across worker threads freely.
    ``source_id`` is an opaque identity string; when omitted it defaults to
    a hash of the array contents so that configuration fingerprints track
    the underlying data.
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


def _parse_binary(raw: bytes, path) -> np.ndarray:
    """Parse the bytes of a binary container read from ``path``."""
    if len(raw) < _HEADER.size:
        raise ValidationError(
            f"{path}: file shorter than the {_HEADER.size}-byte header",
            code="malformed_header",
        )
    magic, version, dtype_code, rows, dim = _HEADER.unpack_from(raw)
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
    found = len(raw) - _HEADER.size
    if found != expected:
        found_rows = found // (dim * dtype.itemsize)
        raise ValidationError(
            f"{path}: payload length mismatch: header declares {rows} rows "
            f"({expected} bytes) but found {found} bytes "
            f"({found_rows} complete rows)",
            code="payload_mismatch",
        )
    data = np.frombuffer(raw, dtype=dtype, count=rows * dim, offset=_HEADER.size)
    return data.reshape(rows, dim).astype(np.float64)


def _parse_csv(raw: bytes, path) -> np.ndarray:
    """Parse the bytes of a UTF-8 CSV embedding file read from ``path``."""
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}", code="malformed_value") from exc
    rows: list[list[float]] = []
    for lineno, line in enumerate(io.StringIO(text, newline="")):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise ValidationError(
                f"{path}: row {lineno}: {exc}", code="malformed_value"
            ) from exc
        if rows and len(values) != len(rows[0]):
            raise ValidationError(
                f"{path}: row {lineno} has {len(values)} columns, "
                f"expected {len(rows[0])}",
                code="dim_mismatch",
            )
        rows.append(values)
    if not rows:
        raise ValidationError(f"{path}: no data rows", code="empty_dataset")
    return np.asarray(rows, dtype=np.float64)


def load_embeddings(path, format: str = "binary") -> EmbeddingDataset:
    """Load an embedding dataset, validating shape and finiteness.

    ``format`` is ``"binary"`` or ``"csv"``. The returned dataset's
    ``source_id`` is a hash of the raw file bytes; the file is read once,
    and the same buffer is parsed and hashed.
    """
    if format not in ("binary", "csv"):
        raise ValidationError(f"unknown format {format!r}", code="bad_format")
    raw = Path(path).read_bytes()
    if format == "binary":
        data = _parse_binary(raw, path)
    else:
        data = _parse_csv(raw, path)
    # ``data`` is a fresh array nobody else holds, so the dataset may keep it
    # read-only instead of copying it.
    data.flags.writeable = False
    try:
        return EmbeddingDataset(data, source_id=content_id(raw))
    except ValidationError as exc:  # e.g. non_finite, naming the row
        raise ValidationError(f"{path}: {exc}", code=exc.code) from exc


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
        fh.write(arr.tobytes())


def read_vector_file(path) -> np.ndarray:
    """Read a binary container back as a float64 matrix (no finiteness check)."""
    return _parse_binary(Path(path).read_bytes(), path)


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
