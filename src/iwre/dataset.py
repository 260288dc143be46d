"""Embedding dataset container and its on-disk formats.

Binary layout (little-endian throughout)::

    magic   4 bytes  b"IWRE"
    version u16      currently 1
    dtype   u8       0 = float32, 1 = float64
    rows    u64      number of embedding vectors N
    dim     u32      embedding dimension d
    payload rows * dim values, row-major

A binary file is read once, in blocks that are hashed and checked for NaN
and Inf, then its payload is mapped read-only in the dtype it stores, not
copied. Scoring and retrieval hand each job's or block's rows back to the
page cache when done (:func:`release_rows`), so a command holds O(job) of
a prior, not the file. Arithmetic in this package is double precision, so
scoring widens float32 rows to float64, exactly, where they enter it: per
chunk of queries, per gathered batch or selected row, and once for the
small target. Scores are therefore the same bits whether a prior is stored
as float32 or float64, mapped or held in memory. The CSV format is UTF-8
text, one embedding per line, comma-separated, no header; it loads as
float64. Row metadata lives in a separate CSV sidecar with header
``episode_id,step_index,episode_length,task_label`` (empty ``task_label``
means unlabeled). It loads as a :class:`MetadataTable`: int64 columns and
a task code per row into a table of the distinct labels, parsed in
vectorised windows of whole records, with Python objects only per run of
equal labels, not per row.
"""

from __future__ import annotations

import csv
import hashlib
import io
import mmap
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ._validation import (
    check_matrix,
    check_vector,
    coerce_fields,
    first_non_finite_row,
    read_only,
)
from .errors import ValidationError

MAGIC = b"IWRE"
FORMAT_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_HEADER = struct.Struct("<4sHBQI")  # magic, version, dtype code, rows, dim
_READ_BLOCK = 1 << 20  # bytes per read of a binary payload, or per gathered block
# Largest region one page fault maps of a file (a 2 MiB huge page on x86-64).
_RELEASE_SPAN = 2 << 20

METADATA_FIELDS = ("episode_id", "step_index", "episode_length", "task_label")
_QUOTE, _COMMA, _LF, _CR = b'",\n\r'
_INT_DIGITS = 18  # most digits of a metadata integer: any such value fits int64
_WRITE_ROWS = 1 << 12  # metadata rows formatted per write
_META_WINDOW = 1 << 16  # bytes of metadata records parsed per window


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
    coerced to float64. :func:`load_embeddings` instead maps a binary
    file's payload in its dtype, so ``data`` may be float32 and is read
    from the file as it is used; scoring widens rows to float64 where they
    enter arithmetic. ``source_id`` is an opaque identity string; when
    omitted it defaults to a hash of the array contents so that
    configuration fingerprints track the underlying data.
    """

    data: np.ndarray
    source_id: str = ""
    # (path, (st_size, st_mtime_ns, st_ino)) of a mapped file, as loaded.
    _origin: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = read_only(check_matrix(self.data, "data"), self.data)
        coerce_fields(self, "dataset field", ("source_id",))
        object.__setattr__(self, "data", arr)
        if not self.source_id:
            object.__setattr__(self, "source_id", content_id(arr))

    @classmethod
    def _wrap(cls, data: np.ndarray, source_id: str, origin=None) -> "EmbeddingDataset":
        """A dataset holding ``data`` as it is: a fresh, finite 2-D array of
        float32 or float64 that no caller holds, such as a file just read
        (``origin``: its path and stat stamp when mapped)."""
        data.flags.writeable = False
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "data", data)
        object.__setattr__(dataset, "source_id", source_id)
        object.__setattr__(dataset, "_origin", origin)
        return dataset

    def check_unchanged(self) -> None:
        """Raise :class:`OSError` if the file this dataset maps changed size,
        modification time or inode since it was hashed at load."""
        if self._origin is None:
            return
        path, stamp = self._origin
        stat = os.stat(path)
        if (stat.st_size, stat.st_mtime_ns, stat.st_ino) != stamp:
            raise OSError(f"{path} changed while in use; rerun the command")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.rows


def _bad_episode_rows(step_index: np.ndarray, episode_length: np.ndarray) -> np.ndarray:
    """Mask of the rows the episode rule refuses: each needs ``episode_length
    >= 1`` and ``0 <= step_index < episode_length``."""
    return (episode_length < 1) | (step_index < 0) | (step_index >= episode_length)


def _episode_error(step_index, episode_length, row: int, at: str) -> ValidationError:
    """The error of ``row``, one that :func:`_bad_episode_rows` refuses;
    ``at`` names it."""
    step, length = int(step_index[row]), int(episode_length[row])
    if length < 1:
        return ValidationError(f"{at}: episode_length must be >= 1, got {length}",
                               code="bad_episode_length")
    return ValidationError(f"{at}: step_index {step} outside [0, {length})",
                           code="bad_step_index")


_INT_COLUMNS = METADATA_FIELDS[:3]


@dataclass(frozen=True, eq=False)
class MetadataTable:
    """Row metadata as read-only columns, one entry per embedding row.

    ``episode_id``, ``step_index`` and ``episode_length`` are int64;
    ``task_code`` (int32) indexes ``task_labels``, a tuple or list of
    strings, and -1 means unlabeled. A column must hold integers that fit
    int64 (else ``malformed_value``: no float or bool is truncated), and is
    copied unless it is a read-only int64 array. Every row needs
    ``episode_length >= 1`` and ``0 <= step_index < episode_length`` (errors
    name ``row i``). The label table is kept sorted, distinct and used by
    some row, so equal tables compare equal with ``==``. The columns are the
    one form of the metadata: there is no row type, and a row's fields are
    the columns at its index.
    """

    episode_id: np.ndarray
    step_index: np.ndarray
    episode_length: np.ndarray
    task_code: np.ndarray
    task_labels: tuple = ()

    def __post_init__(self):
        given = [getattr(self, name) for name in _INT_COLUMNS + ("task_code",)]
        *columns, codes = [check_vector(v, name, np.int64)
                           for v, name in zip(given, _INT_COLUMNS + ("task_code",))]
        columns = [read_only(c, v) for c, v in zip(columns, given)]
        labels = self.task_labels
        if any(c.shape != codes.shape for c in columns):
            raise ValidationError(
                "metadata columns must be 1-D and of one length", code="bad_shape"
            )
        if not isinstance(labels, (tuple, list)) or not all(
                isinstance(label, str) for label in labels):
            raise ValidationError("task labels must be a sequence of strings",
                                  code="bad_task_label")
        if codes.size and (codes.min() < -1 or codes.max() >= len(labels)):
            raise ValidationError(
                f"task_code outside [-1, {len(labels)})", code="bad_task_code"
            )
        bad = _bad_episode_rows(columns[1], columns[2])
        if bad.any():
            row = int(np.argmax(bad))
            raise _episode_error(columns[1], columns[2], row, f"row {row}")
        used = np.zeros(len(labels) + 1, bool)
        used[codes] = True  # code -1 marks the last entry
        names = sorted({labels[k] for k in np.flatnonzero(used[:-1])})
        rank = {name: k for k, name in enumerate(names)}
        remap = np.array([rank.get(label, -1) for label in labels] + [-1], np.int32)
        for name, column in zip(_INT_COLUMNS + ("task_code",), columns + [remap[codes]]):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "task_labels", tuple(names))

    def take(self, idx) -> "MetadataTable":
        """The rows ``idx``, in that order."""
        columns = (getattr(self, name)[idx] for name in _INT_COLUMNS)
        return MetadataTable(*columns, self.task_code[idx], self.task_labels)

    def __len__(self) -> int:
        return self.task_code.shape[0]

    def __eq__(self, other):
        if not isinstance(other, MetadataTable):
            return NotImplemented
        return self.task_labels == other.task_labels and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _INT_COLUMNS + ("task_code",)
        )


def gather_rows(data: np.ndarray, idx) -> np.ndarray:
    """``data[idx]`` as a new float64 array, gathered in blocks, so rows of a
    float32 array are widened without a float32 copy of the selection; a
    mapped array's rows are released block by block (``idx`` ascending)."""
    out = np.empty((len(idx), data.shape[1]))
    step = max(1, _READ_BLOCK // (8 * data.shape[1]))
    for start in range(0, len(idx), step):
        block = idx[start : start + step]
        out[start : start + step] = data[block]
        release_rows(data, block[0], block[-1] + 1)
    return out


def pair_metadata(dataset: EmbeddingDataset, metadata: MetadataTable) -> MetadataTable:
    """``metadata``, checked to line up one-to-one with ``dataset`` rows."""
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


def read_vector_file(path) -> tuple[np.ndarray, str, tuple]:
    """Validate a binary container in one pass, then map its payload.

    The file is read once, in ``_READ_BLOCK`` pieces through one reused
    buffer; each is hashed (the id is :func:`content_id` of the file bytes)
    and checked for NaN and Inf. Returns a read-only array of the stored
    dtype over the mapped payload, the id, and the file's ``(st_size,
    st_mtime_ns, st_ino)``.
    """
    with open(path, "rb") as fh:
        stat = os.fstat(fh.fileno())
        header = fh.read(_HEADER.size)
        dtype, rows, dim = _parse_header(header, stat.st_size, path)
        digest = hashlib.sha256(header)
        payload = stat.st_size - _HEADER.size
        buf = memoryview(bytearray(min(_READ_BLOCK, payload)))
        for start in range(0, payload, len(buf)):
            block = buf[: min(len(buf), payload - start)]
            if fh.readinto(block) != len(block):
                raise ValidationError(
                    f"{path}: file shrank while being read", code="payload_mismatch"
                )
            digest.update(block)
            finite = np.isfinite(np.frombuffer(block, dtype))
            if not finite.all():
                row = (start // dtype.itemsize + int(np.argmin(finite))) // dim
                raise ValidationError(
                    f"{path}: data contains a non-finite value at row {row}",
                    code="non_finite",
                )
        mapped = mmap.mmap(fh.fileno(), stat.st_size, access=mmap.ACCESS_READ)
    data = np.frombuffer(mapped, np.uint8)[_HEADER.size :].view(dtype)
    stamp = (stat.st_size, stat.st_mtime_ns, stat.st_ino)
    return data.reshape(rows, dim), _short_id(digest), stamp


def release_rows(data: np.ndarray, start: int, stop: int) -> None:
    """Hand the pages of rows ``start:stop`` of an array
    :func:`read_vector_file` returned back to the page cache.

    A fault may map the whole ``_RELEASE_SPAN`` region around a page, so
    the range is widened to whole regions; a worker reading rows there
    pages them in again. Does nothing for an in-memory array or where
    ``madvise`` is missing.
    """
    whole = data
    while isinstance(whole.base, np.ndarray):
        whole = whole.base
    mapped = getattr(whole.base, "obj", None)
    if not isinstance(mapped, mmap.mmap) or not hasattr(mmap, "MADV_DONTNEED"):
        return
    offset = data.__array_interface__["data"][0] - whole.__array_interface__["data"][0]
    lo = (offset + start * data.strides[0]) // _RELEASE_SPAN * _RELEASE_SPAN
    hi = -(-(offset + stop * data.strides[0]) // _RELEASE_SPAN) * _RELEASE_SPAN
    mapped.madvise(mmap.MADV_DONTNEED, lo, hi - lo)  # clipped to the mapping


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


def load_embeddings(path) -> EmbeddingDataset:
    """Load an embedding dataset, validating shape and finiteness.

    A path ending in ``.csv``, in any case, is headerless CSV, any other the
    binary container. The file is read once and hashed as it is read:
    ``source_id`` is :func:`content_id` of its bytes. A binary payload is
    then mapped read-only in its stored dtype (float32 or float64), not
    copied (:func:`read_vector_file`); CSV loads into memory as float64.
    """
    if not str(path).lower().endswith(".csv"):
        data, source_id, stamp = read_vector_file(path)
        return EmbeddingDataset._wrap(data, source_id, (os.fspath(path), stamp))
    raw = Path(path).read_bytes()
    data, lines = _parse_csv(raw, path)
    row = first_non_finite_row(data)
    if row is not None:
        at = f"line {lines[row]} (row {row})"
        raise ValidationError(f"{path}: data contains a non-finite value at {at}",
                              code="non_finite")
    return EmbeddingDataset._wrap(data, content_id(raw))


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


def _records(buf: np.ndarray, eof: bool) -> tuple:
    """The whole records at the start of the CSV bytes ``buf``, and at
    ``eof`` the rest of them too.

    A record ends at a line end ("\\n", "\\r\\n" or a lone "\\r") outside
    double quotes: an even number of quotes precede it in ``buf`` (``""`` in
    a quoted field counts twice). Returns each record's content start and
    stop (line end excluded), the line ends up to the end of each (its
    ``csv.reader.line_num`` less the lines before ``buf``; line ends in
    quotes count), and the bytes and line ends the records took.
    """
    lf = buf == _LF
    cr = buf == _CR
    cr[:-1] &= ~lf[1:]
    if not eof and cr.size:
        cr[-1] = False  # it may start a "\\r\\n"
    ends = np.flatnonzero(lf | cr)
    quotes = np.flatnonzero(buf == _QUOTE)
    outside = np.searchsorted(quotes, ends) % 2 == 0
    if not eof:  # up to the last line end outside quotes
        last = np.flatnonzero(outside)
        if not last.size:
            return (np.empty(0, np.int64),) * 3 + (0, 0)
        ends, outside = ends[: last[-1] + 1], outside[: last[-1] + 1]
    term = ends[outside]
    crlf = (term > 0) & lf[term] & (buf[term - 1] == _CR)
    start = np.concatenate(([0], term + 1))
    stop = np.concatenate((term - crlf, [buf.size]))
    tail_line = ends.size + (ends.size == 0 or ends[-1] != buf.size - 1)
    line = np.concatenate((np.flatnonzero(outside) + 1, [tail_line]))
    if not eof or start[-1] == buf.size:  # no record after the last end
        start, stop, line = start[:-1], stop[:-1], line[:-1]
    used = buf.size if eof else int(ends[-1]) + 1
    return start, stop, line, used, ends.size


# Digits are read eight at a time, as the bytes of a little-endian word, the
# first digit in the lowest byte. _KEEP[n] keeps a word's last n bytes. Each
# step of _EIGHT joins neighbouring groups of digits (times the lower group's
# place value, plus the higher group shifted down, masked): bytes into pairs,
# pairs into fours, fours into the word's value.
_KEEP = np.array([0] + [((1 << 8 * n) - 1) << 8 * (8 - n) for n in range(1, 9)],
                 np.uint64)
_EIGHT = [(np.uint64(times), np.uint64(shift), np.uint64(mask)) for times, shift, mask in
          ((10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF),
           (10000, 32, 0xFFFFFFFF))]
_ALL_DIGITS = np.uint64(0x0101010101010101)  # a word of eight True bytes


def _int_fields(buf: np.ndarray, start: np.ndarray, stop: np.ndarray) -> tuple:
    """Parse the integer field ``buf[start:stop]`` of each entry of the
    index arrays ``start`` and ``stop``: an optional sign and 1 to
    ``_INT_DIGITS`` ASCII digits, the whole optionally in double quotes.
    Returns the int64 values and a mask of the entries that parsed, both of
    ``start``'s shape; each eight digits are one vector step over them all."""
    shape = start.shape
    start, stop = start.ravel(), stop.ravel()
    quoted = (stop - start >= 2) & (buf[start] == _QUOTE) & (buf[stop - 1] == _QUOTE)
    start, stop = start + quoted, stop - quoted
    first = buf[start]
    sign = (stop > start) & ((first == ord("-")) | (first == ord("+")))
    negative = sign & (first == ord("-"))
    digits = stop - start - sign
    ok = (digits >= 1) & (digits <= _INT_DIGITS)
    words = -(-min(int(digits.max(initial=0)), _INT_DIGITS) // 8)
    # The digit values of the bytes, after a word of padding per word read,
    # as a word at every byte; a byte below "0" wraps past 9.
    pad = 8 * max(words, 1)
    text = np.concatenate((np.zeros(pad, np.uint8), buf)) - np.uint8(ord("0"))
    at = np.ndarray(text.size - 7, "<u8", text, strides=(1,))
    value = np.zeros(start.shape, np.uint64)
    for k in range(words):  # word k holds digits 8k+1 to 8k+8 from the end
        word = at[stop + pad - 8 * (k + 1)] & _KEEP[np.clip(digits - 8 * k, 0, 8)]
        ok &= (word.view(np.uint8) <= 9).view("<u8") == _ALL_DIGITS
        for times, shift, mask in _EIGHT:
            word = word * times + (word >> shift) & mask
        value += word * np.uint64(10 ** (8 * k))
    value = value.astype(np.int64)
    return np.where(negative, -value, value).reshape(shape), ok.reshape(shape)


def _label_codes(buf, start, stop, labels: dict) -> tuple:
    """Code the label field ``buf[start:stop]`` of each row by ``labels``,
    which maps each label met so far to its code and takes new ones.

    A row whose bytes equal the row before it (as in an episode) shares its
    code, found in O(label bytes); each distinct label is decoded once,
    quoted ones through ``csv``. Returns the codes (-1 for an empty label)
    and a mask of the rows whose label is not UTF-8.
    """
    size = stop - start
    new = np.ones(start.size, bool)
    new[1:] = size[1:] != size[:-1]
    # Rows as long as the row before them, by length: labels of length n are
    # items of a view of ``buf`` with an n-byte item at every byte.
    same = np.flatnonzero(~new & (size > 0))
    same = same[np.argsort(size[same], kind="stable")]
    for rows in np.split(same, np.flatnonzero(np.diff(size[same])) + 1):
        if rows.size:
            n = int(size[rows[0]])
            text = np.ndarray(buf.size - n + 1, f"S{n}", buf, strides=(1,))
            new[rows] = text[start[rows]] != text[start[rows - 1]]
    heads = np.flatnonzero(new)
    data = buf.tobytes()
    keys = [data[s:e] for s, e in zip(start[heads].tolist(), stop[heads].tolist())]
    code_of: dict = {}  # a label's bytes -> its code, -2 if not UTF-8
    for key in dict.fromkeys(keys):
        try:
            label = key.decode()
        except UnicodeDecodeError:
            code_of[key] = -2
            continue
        if label.startswith('"'):
            label = next(csv.reader([label]))[0]
        code_of[key] = labels.setdefault(label, len(labels)) if label else -1
    codes = np.array([code_of[key] for key in keys], np.int64)[np.cumsum(new) - 1]
    return np.maximum(codes, -1), codes == -2


def _parse_rows(buf, start, stop, line, row0, columns, labels, path) -> int:
    """Parse the non-blank records ``buf[start:stop]``, which end on lines
    ``line``, into ``columns`` from row ``row0`` on; ``labels`` maps each
    label met so far to its code. Returns the rows parsed, or raises the
    error of the first bad row."""
    text = buf[start[0] : stop[-1]]
    commas = np.flatnonzero(text == _COMMA)
    quotes = np.flatnonzero(text == _QUOTE)
    if quotes.size:
        commas = commas[np.searchsorted(quotes, commas) % 2 == 0]
    commas += start[0]
    row_of = np.searchsorted(start, commas, "right") - 1
    fields = np.bincount(row_of, minlength=start.size) + 1
    wrong = np.flatnonzero(fields != len(METADATA_FIELDS))
    n = int(wrong[0]) if wrong.size else start.size  # rows before the first
    # Field k of those rows spans bounds[:, k] (+1 past a comma) to bounds[:, k + 1].
    bounds = np.column_stack((start[:n], commas[row_of < n].reshape(n, 3), stop[:n]))
    # The three integer fields, stacked, are parsed in one digit loop.
    ints, ints_ok = _int_fields(buf, bounds[:, :3].T + [[0], [1], [1]], bounds[:, 1:4].T)
    episode_id, step, length = ints
    codes, undecodable = _label_codes(buf, bounds[:, 3] + 1, bounds[:, 4], labels)
    problems = [*~ints_ok, _bad_episode_rows(step, length), undecodable]
    row = min((int(np.argmax(p)) for p in problems if p.any()), default=n)
    if row < start.size:
        at = f"{path}: line {line[row]} (row {row0 + row})"
        if row == n:
            raise ValidationError(
                f"{at} has {fields[n]} fields, expected {len(METADATA_FIELDS)}",
                code="dim_mismatch",
            )
        kind = next(k for k, p in enumerate(problems) if p[row])
        if kind < 3:
            value = buf[bounds[row, kind] + (kind > 0) : bounds[row, kind + 1]]
            raise ValidationError(
                f"{at}: {METADATA_FIELDS[kind]} is not an integer: "
                f"{value.tobytes().decode(errors='replace')!r}",
                code="malformed_value",
            )
        if kind == 3:
            raise _episode_error(step, length, row, at)
        raise ValidationError(f"{at}: task_label is not UTF-8", code="malformed_value")
    rows = slice(row0, row0 + n)
    for column, values in zip(columns, (episode_id, step, length)):
        column[rows] = values
    columns[3][rows] = codes
    return n


def load_metadata(path) -> MetadataTable:
    """Load the metadata sidecar, preserving file order, as a table.

    The file is read in windows of whole records of about ``_META_WINDOW``
    bytes, each parsed in vector steps over all its rows into columns sized
    by a first count of its line ends: Python objects only per run of equal
    labels, not per row, and O(window) beyond the columns. Rows and quoting are read as
    ``csv.reader`` reads RFC 4180 CSV. An integer field is an optional sign
    and 1 to 18 ASCII digits, optionally quoted; spaces, underscores and
    other digits are refused. Errors name the file line and the data row,
    ``line L (row i)``, of the first bad row; blank lines hold no row.
    """
    with open(path, "rb") as fh:
        capacity = 1 + sum(  # at least the rows
            block.count(b"\n") + block.count(b"\r")
            for block in iter(lambda: fh.read(_READ_BLOCK), b"")
        )
        fh.seek(0)
        columns = [np.empty(capacity, np.int64) for _ in _INT_COLUMNS]
        columns.append(np.empty(capacity, np.int32))
        labels: dict = {}
        lines = rows = 0
        header = None
        data = b""
        while True:
            chunk = fh.read(max(_META_WINDOW, len(data)))  # a long record doubles it
            data += chunk
            if not data:
                break
            buf = np.frombuffer(data, np.uint8)
            start, stop, line, used, used_lines = _records(buf, eof=not chunk)
            data = data[used:]
            line += lines
            lines += used_lines
            if header is None and start.size:
                text = buf[start[0] : stop[0]].tobytes().decode(errors="replace")
                header = next(csv.reader([text]), [])
                if tuple(header) != METADATA_FIELDS:
                    raise ValidationError(
                        f"{path}: expected header {','.join(METADATA_FIELDS)}, "
                        f"got {','.join(header)}",
                        code="malformed_header",
                    )
                start, stop, line = start[1:], stop[1:], line[1:]
            keep = stop > start  # blank records hold no row
            if keep.any():
                rows += _parse_rows(buf, start[keep], stop[keep], line[keep], rows,
                                    columns, labels, path)
            if not chunk:
                break
    if header is None:
        raise ValidationError(f"{path}: empty metadata file", code="empty_dataset")
    if rows == 0:
        raise ValidationError(f"{path}: no metadata rows", code="empty_dataset")
    columns = [column[:rows] for column in columns]
    for column in columns:
        column.flags.writeable = False  # the table holds them as they are
    return MetadataTable(*columns, tuple(labels))


def _csv_label(label: str) -> bytes:
    """A label as one CSV field: double-quoted, each ``"`` doubled, if and
    only if it holds ``,``, ``"``, CR or LF; an empty label stays empty."""
    if any(c in label for c in ',"\r\n'):
        return b'"' + label.replace('"', '""').encode() + b'"'
    return label.encode()


def save_metadata(table: MetadataTable, path) -> None:
    """Write a :class:`MetadataTable` as the metadata sidecar CSV,
    ``_WRITE_ROWS`` rows per write; each distinct label is quoted once."""
    # Each label's field; code -1 (unlabeled) picks the last, empty one.
    labels = [_csv_label(label) for label in table.task_labels] + [b""]
    with open(path, "wb") as fh:
        fh.write(",".join(METADATA_FIELDS).encode() + b"\n")
        for lo in range(0, len(table), _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS)
            columns = [getattr(table, name)[rows].tolist() for name in _INT_COLUMNS]
            columns.append([labels[code] for code in table.task_code[rows].tolist()])
            fh.write(b"".join(b"%d,%d,%d,%s\n" % row for row in zip(*columns)))
