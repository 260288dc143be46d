"""Dataset container, binary/CSV formats, and metadata sidecar."""

import builtins
import csv
import hashlib
import io
import mmap
import os
import re
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import metadata_table, reference_load_metadata
from iwre import _validation, dataset
from iwre.dataset import (
    FORMAT_VERSION,
    MAGIC,
    EmbeddingDataset,
    MetadataTable,
    content_id,
    load_embeddings,
    load_metadata,
    pair_metadata,
    release_rows,
    save_embeddings,
    save_metadata,
    write_vector_file,
)
from iwre.errors import ValidationError
from iwre.retrieval import materialize, select_by_fraction
from iwre.scoring import ScoreMethod, ScoringConfig

HEADER = struct.Struct("<4sHBQI")
METADATA_FIELDS_ROW = list(dataset.METADATA_FIELDS)


def write_raw(path, magic=MAGIC, version=FORMAT_VERSION, dtype_code=1, rows=0,
              dim=0, payload=b""):
    path.write_bytes(HEADER.pack(magic, version, dtype_code, rows, dim) + payload)


class TestEmbeddingDataset:
    def test_basic_shape(self):
        ds = EmbeddingDataset(np.arange(6.0).reshape(2, 3))
        assert ds.rows == 2 and ds.dim == 3 and len(ds) == 2

    def test_data_is_read_only(self):
        ds = EmbeddingDataset(np.zeros((2, 2)))
        assert not ds.data.flags.writeable
        with pytest.raises(ValueError):
            ds.data[0, 0] = 1.0

    def test_caller_array_not_frozen(self):
        arr = np.zeros((2, 2))
        EmbeddingDataset(arr)
        arr[0, 0] = 1.0  # still writable

    def test_rejects_non_2d(self):
        with pytest.raises(ValidationError) as exc:
            EmbeddingDataset(np.zeros(3))
        assert exc.value.code == "bad_shape"

    def test_rejects_no_rows(self):
        with pytest.raises(ValidationError) as exc:
            _validation.check_matrix(np.zeros((0, 3)))
        assert exc.value.code == "empty_dataset"

    def test_rejects_non_finite(self):
        data = np.zeros((3, 2))
        data[1, 0] = np.nan
        with pytest.raises(ValidationError) as exc:
            EmbeddingDataset(data)
        assert exc.value.code == "non_finite"
        assert "row 1" in str(exc.value)

    @pytest.mark.parametrize("data, source_id, code", [
        ([["a", "b"]], "", "malformed_value"),
        ([[1.0], [2.0, 3.0]], "", "malformed_value"),
        (np.array([[True, False]]), "", "malformed_value"),
        (np.zeros((2, 2)), 7, "bad_param"),
        (np.zeros((2, 2)), None, "bad_param"),
    ], ids=["strings", "ragged", "bools", "source_id_int", "source_id_none"])
    def test_rejects_non_numbers(self, data, source_id, code):
        with pytest.raises(ValidationError) as exc:
            EmbeddingDataset(data, source_id)
        assert exc.value.code == code

    def test_default_source_id_tracks_content(self):
        a = EmbeddingDataset(np.ones((2, 2)))
        b = EmbeddingDataset(np.ones((2, 2)))
        c = EmbeddingDataset(np.zeros((2, 2)))
        assert a.source_id == b.source_id != c.source_id


class TestBinaryFormat:
    def test_round_trip_declared_header(self, tmp_path):
        ds = EmbeddingDataset(np.arange(6.0).reshape(2, 3))
        path = tmp_path / "e.bin"
        save_embeddings(ds, path)
        back = load_embeddings(path)
        assert back.rows == 2 and back.dim == 3
        assert np.array_equal(back.data, ds.data)

    def test_round_trip_single_value(self, tmp_path):
        ds = EmbeddingDataset(np.array([[0.0]]))
        path = tmp_path / "one.bin"
        save_embeddings(ds, path)
        back = load_embeddings(path)
        assert back.data.shape == (1, 1) and back.data[0, 0] == 0.0

    def test_round_trip_large_random_bytewise(self, tmp_path):
        rng = np.random.default_rng(42)
        data = rng.standard_normal((1000, 32))
        path = tmp_path / "big.bin"
        save_embeddings(EmbeddingDataset(data), path)
        back = load_embeddings(path)
        assert back.data.tobytes() == data.tobytes()

    def test_save_load_save_is_stable(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = EmbeddingDataset(rng.standard_normal((17, 5)))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_embeddings(ds, p1)
        save_embeddings(load_embeddings(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float32_payload_kept(self, tmp_path):
        values = np.array([0.1, -2.5, 3e-7, 1e30, -0.0, 6], dtype="<f4")
        path = tmp_path / "f32.bin"
        write_raw(path, dtype_code=0, rows=2, dim=3, payload=values.tobytes())
        ds = load_embeddings(path)
        assert ds.data.dtype == np.float32 and not ds.data.flags.writeable
        assert ds.data.flags.c_contiguous
        np.testing.assert_array_equal(
            ds.data.astype(np.float64), values.astype(np.float64).reshape(2, 3)
        )

    def test_payload_read_in_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "_READ_BLOCK", 40)  # blocks split rows
        values = np.random.default_rng(5).standard_normal((7, 3))
        path = tmp_path / "blocks.bin"
        write_raw(path, rows=7, dim=3, payload=values.astype("<f8").tobytes())
        ds = load_embeddings(path)
        assert ds.data.tobytes() == values.tobytes()
        assert ds.source_id == content_id(path.read_bytes())

    def test_payload_length_mismatch(self, tmp_path):
        payload = np.zeros(9, dtype="<f8").tobytes()  # 3 rows of d=3
        path = tmp_path / "short.bin"
        write_raw(path, rows=4, dim=3, payload=payload)
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "payload_mismatch"
        assert "payload length mismatch" in str(exc.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        write_raw(path, magic=b"NOPE", rows=1, dim=1,
                  payload=np.zeros(1).tobytes())
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "malformed_header"

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"IWR")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "malformed_header"

    def test_unknown_version_and_dtype(self, tmp_path):
        path = tmp_path / "v.bin"
        write_raw(path, version=9, rows=1, dim=1, payload=np.zeros(1).tobytes())
        with pytest.raises(ValidationError):
            load_embeddings(path)
        write_raw(path, dtype_code=7, rows=1, dim=1, payload=np.zeros(1).tobytes())
        with pytest.raises(ValidationError):
            load_embeddings(path)

    def test_empty_dataset_header(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_raw(path, rows=0, dim=3)
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "empty_dataset"

    def test_non_finite_payload(self, tmp_path):
        data = np.zeros((3, 2))
        data[2, 1] = np.inf
        path = tmp_path / "inf.bin"
        write_raw(path, rows=3, dim=2, payload=data.astype("<f8").tobytes())
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "non_finite"
        assert "row 2" in str(exc.value)

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_nan_names_path_and_row(self, tmp_path, fmt):
        path = tmp_path / f"nan.{fmt}"
        if fmt == "binary":
            write_raw(path, rows=3, dim=2,
                      payload=np.array([0, 1, 2, np.nan, 4, 5], "<f8").tobytes())
        else:
            path.write_text("0,1\n\n2,nan\n4,5\n")  # the blank line is no row
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "non_finite"
        assert str(path) in str(exc.value) and "row 1" in str(exc.value)

    def test_non_finite_float32_payload(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_validation, "_FINITE_BLOCK_ELEMS", 4)  # 2-row blocks
        values = np.zeros((5, 2), dtype="<f4")
        values[3, 0] = -np.inf
        path = tmp_path / "inf32.bin"
        write_raw(path, dtype_code=0, rows=5, dim=2, payload=values.tobytes())
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "non_finite" and "row 3" in str(exc.value)


class TestCsvFormat:
    def test_path_names_the_format(self, tmp_path):
        # A .csv path is CSV; any other is the binary container, as in the CLI.
        values = np.random.default_rng(5).standard_normal((4, 3))
        binary, text = tmp_path / "e.bin", tmp_path / "e.csv"
        save_embeddings(EmbeddingDataset(values), binary)
        np.savetxt(text, values, delimiter=",", fmt="%.17g")
        np.testing.assert_array_equal(load_embeddings(text).data, values)
        np.testing.assert_array_equal(load_embeddings(binary).data, values)
        # The suffix is matched in any case.
        upper = text.rename(tmp_path / "T.CSV")
        np.testing.assert_array_equal(load_embeddings(upper).data, values)
        with pytest.raises(ValidationError) as exc:
            load_embeddings(upper.rename(tmp_path / "e.txt"))
        assert exc.value.code == "malformed_header"

    def test_direct_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1.0\n2.0,3.0\n")
        ds = load_embeddings(path)
        assert ds.rows == 2 and ds.dim == 2
        np.testing.assert_array_equal(ds.data, [[0.0, 1.0], [2.0, 3.0]])

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0,1\n2,3,4\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "dim_mismatch"

    def test_bad_token(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("0,abc\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "malformed_value"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "empty_dataset"

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"0,1\n2,\xe93\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "malformed_value" and str(path) in str(exc.value)

    @pytest.mark.parametrize("bad, code", [
        ("2,nan", "non_finite"),
        ("2,abc", "malformed_value"),
        ("2,3,4", "dim_mismatch"),
    ])
    def test_errors_name_the_same_line(self, tmp_path, bad, code):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1\n\n{bad}\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == code
        assert str(path) in str(exc.value) and "line 3 (row 1)" in str(exc.value)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("0,nan\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path)
        assert exc.value.code == "non_finite"


class TestRowMetadata:
    """Rows of the metadata sidecar, as the columns of a table."""

    def test_single_episode_of_three(self, tmp_path):
        records = [(0, i, 3, None) for i in range(3)]
        path = tmp_path / "m.csv"
        save_metadata(metadata_table(records), path)
        back = load_metadata(path)
        assert back == metadata_table(records)
        assert back.episode_id.tolist() == [0, 0, 0]
        assert back.step_index.tolist() == [0, 1, 2]
        assert back.episode_length.tolist() == [3, 3, 3]
        assert reference_load_metadata(path) == records

    def test_step_index_out_of_bounds(self):
        with pytest.raises(ValidationError) as exc:
            MetadataTable([0], [5], [3], [-1])
        assert exc.value.code == "bad_step_index"
        assert str(exc.value).startswith("row 0: ")

    def test_two_episodes(self):
        table = metadata_table([(0, 0, 2, None), (0, 1, 2, None), (1, 0, 1, None)])
        assert table.episode_id.tolist() == [0, 0, 1]

    def test_task_label_round_trip(self, tmp_path):
        records = [(0, 0, 2, "pick, then place"), (0, 1, 2, None)]
        path = tmp_path / "m.csv"
        save_metadata(metadata_table(records), path)
        assert load_metadata(path) == metadata_table(records)
        assert reference_load_metadata(path) == records

    def test_bad_step_in_file_names_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "episode_id,step_index,episode_length,task_label\n0,5,3,\n"
        )
        with pytest.raises(ValidationError) as exc:
            load_metadata(path)
        assert exc.value.code == "bad_step_index"
        assert "row 0" in str(exc.value)

    @pytest.mark.parametrize("bad,code", [
        ("0,5,3,", "bad_step_index"),
        ("0,x,3,", "malformed_value"),
        ("0,1,3", "dim_mismatch"),
    ])
    def test_error_names_line_and_row(self, tmp_path, bad, code):
        # The bad record is on line 5, after a blank line: data row 2.
        path = tmp_path / "m.csv"
        path.write_text(
            "episode_id,step_index,episode_length,task_label\n"
            f"0,0,3,\n0,1,3,\n\n{bad}\n"
        )
        with pytest.raises(ValidationError) as exc:
            load_metadata(path)
        assert exc.value.code == code
        assert f"{path}: line 5 (row 2)" in str(exc.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,0,3,\n")
        with pytest.raises(ValidationError) as exc:
            load_metadata(path)
        assert exc.value.code == "malformed_header"

    def test_pairing_law(self):
        ds = EmbeddingDataset(np.zeros((2, 2)))
        good = metadata_table([(0, 0, 2, None), (0, 1, 2, None)])
        assert pair_metadata(ds, good) is good
        with pytest.raises(ValidationError) as exc:
            pair_metadata(ds, good.take([0]))
        assert exc.value.code == "row_count_mismatch"


HEADER_LINE = "episode_id,step_index,episode_length,task_label"
# Labels built from the characters CSV quoting and line splitting care about;
# "" reads back as unlabeled.
LABELS = st.text(alphabet=st.sampled_from(list(',"\n\r# aZé任')), max_size=6)


def outcome(load, path):
    """What a loader makes of a file: ("ok", its table), or the error code
    and its ``line L (row i)`` location."""
    try:
        loaded = load(path)
        return "ok", loaded if isinstance(loaded, MetadataTable) else metadata_table(loaded)
    except ValidationError as exc:
        where = re.search(r"line \d+ \(row \d+\)", str(exc))
        return exc.code, where and where.group()


@st.composite
def metadata_records(draw, labels=LABELS):
    records = []
    for _ in range(draw(st.integers(1, 25))):
        length = draw(st.integers(1, 10**6))
        records.append((
            draw(st.integers(-10**12, 10**12)), draw(st.integers(0, length - 1)),
            length, draw(st.none() | labels),
        ))
    return records


class TestColumnarMetadata:
    """``load_metadata`` parses the whole file into columns; a record-wise
    ``csv.reader`` loop (``helpers.reference_load_metadata``) is its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(records=metadata_records())
    def test_round_trip(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            save_metadata(metadata_table(records), path)
            expected = [(*r[:3], r[3] or None) for r in records]
            assert load_metadata(path) == metadata_table(expected)
            assert reference_load_metadata(path) == expected

    @settings(max_examples=150, deadline=None)
    @given(records=metadata_records(labels=st.text(
        alphabet=st.sampled_from(list(',"\r\n \taZé任')), max_size=8)))
    def test_bytes_match_csv_writer(self, records):
        # save_metadata's one quoting rule is csv's QUOTE_MINIMAL with CR
        # forcing quotes too. A "\r\n" line terminator makes csv quote CR on
        # every Python release (3.13 alone does so under "\n"); the
        # sidecar's lines end in "\n". Blocks of 4 rows cross write edges.
        lines = [HEADER_LINE + "\n"]
        for *ints, label in records:
            out = io.StringIO()
            csv.writer(out, lineterminator="\r\n").writerow([*ints, label or ""])
            lines.append(out.getvalue()[:-2] + "\n")
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            dataset, "_WRITE_ROWS", 4
        ):
            path = Path(tmp) / "m.csv"
            save_metadata(metadata_table(records), path)
            assert path.read_bytes() == "".join(lines).encode()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(-3, 40), st.integers(-2, 30),
                                st.integers(-1, 30), LABELS), max_size=12),
        quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
        terminator=st.sampled_from(["\n", "\r\n", "\r"]),
        blanks=st.lists(st.integers(0, 12), max_size=3),
        final_terminator=st.booleans(),
    )
    def test_matches_reference(self, rows, quoting, terminator, blanks,
                               final_terminator):
        # Files as other CSV writers produce them, some with bad rows or
        # with labels whose unquoted line breaks split a record.
        lines = []
        for row in [METADATA_FIELDS_ROW, *rows]:
            out = io.StringIO()
            csv.writer(out, lineterminator=terminator, quoting=quoting).writerow(row)
            lines.append(out.getvalue())
        for at in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), terminator)
        text = "".join(lines)
        if not final_terminator:
            text = text[: -len(terminator)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(text.encode())
            assert outcome(load_metadata, path) == outcome(reference_load_metadata, path)

    @pytest.mark.parametrize("text", [
        "",
        "\n",
        "episode_id,step,episode_length,task_label\n0,0,1,\n",
        "\n" + HEADER_LINE + "\n0,0,1,\n",
        HEADER_LINE + "\n",
        HEADER_LINE + "\n\n\r\n",
        HEADER_LINE + "\n0,0,3\n",
        HEADER_LINE + "\n0,0,3,a,b\n",
        HEADER_LINE + "\n0,0,3,\n  \n",
        HEADER_LINE + "\n0,x,3,\n",
        HEADER_LINE + "\n0,1.5,3,\n",
        HEADER_LINE + "\n0,,3,\n",
        HEADER_LINE + "\n0,0,0,\n",
        HEADER_LINE + "\n0,3,3,\n",
        HEADER_LINE + "\n0,-1,3,\n",
        HEADER_LINE + "\n0,0,3,\n\n\r\n0,9,3,\n",
        HEADER_LINE + "\n0,0,3,\n0,5,3,\n0,0\n",
        HEADER_LINE + "\n0,0,3,\n0,x,3,\n0,9,3,\n",
        HEADER_LINE + '\n0,0,3,"two\nlines"\n0,1,3,"a\r\nb"\n\n0,7,3,\n',
        HEADER_LINE + '\n0,0,3,"a,b"\n"0","1","3",""\n0,2,3,"a,b"',
        HEADER_LINE + '\n0,0,3,\n0,9,3,"open\n',
    ])
    def test_same_error_as_reference(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        assert outcome(load_metadata, path) == outcome(reference_load_metadata, path)

    @pytest.mark.parametrize("value", ["1_0", "\u0661", " 1", "+-1", "1" * 19])
    def test_integer_syntax(self, tmp_path, value):
        # An optional sign and 1 to 18 ASCII digits; int() would accept some
        # of these (underscores, other digits, spaces), the loader does not.
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER_LINE}\n0,0,3,\n{value},0,3,\n", encoding="utf-8")
        with pytest.raises(ValidationError) as exc:
            load_metadata(path)
        assert exc.value.code == "malformed_value"
        assert "line 3 (row 1)" in str(exc.value)

    @settings(max_examples=300, deadline=None)
    @given(fields=st.lists(st.one_of(
        st.integers(-(10**18) + 1, 10**18 - 1).map(str),
        st.text(alphabet=st.sampled_from(list('0123456789+-"/: _a')), max_size=21),
    ), min_size=1, max_size=24).map(lambda f: f + [""] * (-len(f) % 3)))
    def test_integer_fields_match_the_rule(self, fields):
        # _int_fields reads a window's three integer columns in one pass:
        # per field, an optional sign and 1 to 18 ASCII digits, optionally
        # quoted. The first field starts at byte 0 of the window, and a
        # label field follows the last, as in a record.
        raw = ",".join([*fields, "label"]).encode()
        bounds = np.cumsum([0] + [len(f) + 1 for f in fields])
        start, stop = bounds[:-1], bounds[1:] - 1
        values, ok = dataset._int_fields(np.frombuffer(raw, np.uint8),
                                         start.reshape(3, -1), stop.reshape(3, -1))
        for field, value, parsed in zip(fields, values.ravel(), ok.ravel()):
            text = field[1:-1] if len(field) >= 2 and field[0] == field[-1] == '"' else field
            want = re.fullmatch(r"[+-]?[0-9]{1,18}", text) is not None
            assert parsed == want, field
            assert not want or value == int(text), field

    def test_non_utf8_label_names_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(f"{HEADER_LINE}\n0,0,2,ok\n0,1,2,\xff\n".encode("latin-1"))
        with pytest.raises(ValidationError) as exc:
            load_metadata(path)
        assert exc.value.code == "malformed_value"
        assert "line 3 (row 1)" in str(exc.value)

    def test_carriage_return_label_round_trips(self, tmp_path):
        # csv.writer with lineterminator "\n" leaves a lone "\r" unquoted, so
        # a label holding one must be quoted by save_metadata itself.
        src = tmp_path / "in.csv"
        src.write_bytes(f'{HEADER_LINE}\n0,0,2,"a\rb"\n0,1,2,"c\nd"\n'.encode())
        table = load_metadata(src)
        assert [table.task_labels[code] for code in table.task_code] == ["a\rb", "c\nd"]
        out = tmp_path / "out.csv"
        save_metadata(table, out)
        assert out.read_bytes() == src.read_bytes()
        assert load_metadata(out) == table

    def test_windows_of_records(self, tmp_path, monkeypatch):
        # Records, quoted line breaks and label codes carry across windows.
        monkeypatch.setattr(dataset, "_META_WINDOW", 16)
        records = [(e, s, 3, ["x", "a,\nb", None][(e + s) % 3])
                   for e in range(7) for s in range(3)]
        path = tmp_path / "m.csv"
        save_metadata(metadata_table(records), path)
        assert load_metadata(path) == metadata_table(records)
        assert reference_load_metadata(path) == records
        text = path.read_text().replace("\n4,", "\n4,x", 1)
        path.write_text(text)
        assert outcome(load_metadata, path) == outcome(reference_load_metadata, path)

    def test_mixed_length_labels_in_one_window(self, tmp_path):
        # Labels of 0 to 120 bytes, quoted and multibyte among them, in one
        # parse window: episodes that repeat a label, and neighbours of one
        # length that differ in a byte, equal the record-wise reader's.
        rng = np.random.default_rng(4)
        chars = list('abz,"\n é任')
        labels = []
        for limit in [0, 120, *rng.integers(0, 121, 28)]:
            label = ""
            while len(label.encode()) + 3 <= limit:
                label += chars[rng.integers(len(chars))]
            labels += [label, label[:-1] + "q" if label else "q"]
        records = [(e, s, 3, label or None)
                   for e, label in enumerate(labels) for s in range(3)]
        path = tmp_path / "m.csv"
        save_metadata(metadata_table(records), path)
        assert path.stat().st_size < dataset._META_WINDOW
        assert max(len(label.encode()) for label in labels) > 100
        assert reference_load_metadata(path) == records
        assert load_metadata(path) == metadata_table(records)

    def test_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER_LINE}\n0,0,2,b\n0,1,2,\n1,0,1,a\n")
        table = load_metadata(path)
        assert isinstance(table, MetadataTable) and len(table) == 3
        for name, dtype in [("episode_id", np.int64), ("step_index", np.int64),
                            ("episode_length", np.int64), ("task_code", np.int32)]:
            column = getattr(table, name)
            assert column.dtype == dtype and not column.flags.writeable
        assert table.task_labels == ("a", "b")
        assert table.task_code.tolist() == [1, -1, 0]
        assert table.take([2]) == metadata_table([(1, 0, 1, "a")])
        assert reference_load_metadata(path)[1:] == [(0, 1, 2, None), (1, 0, 1, "a")]


class TestMetadataTable:
    def test_labels_sorted_distinct_and_used(self):
        table = MetadataTable([0, 0, 0], [0, 1, 2], [3, 3, 3], [2, 0, 2],
                              ("b", "unused", "a"))
        assert table.task_labels == ("a", "b")
        assert [table.task_labels[code] for code in table.task_code] == ["a", "b", "a"]

    def test_equality_and_records(self):
        records = [(0, 0, 2, "p"), (0, 1, 2, None), (1, 0, 1, "q")]
        table = metadata_table(records)
        assert table.task_labels == ("p", "q") and table.task_code.tolist() == [0, -1, 1]
        assert table == metadata_table(records)
        assert table != metadata_table(records[:2] + [(1, 0, 1, "r")])
        assert table.take([2, 0]) == metadata_table([records[2], records[0]])

    def test_integer_columns_of_any_width(self):
        table = MetadataTable(np.array([7], np.uint8), np.array([0], np.int16),
                              np.array([2], np.uint64), np.array([0], np.int8), ("a",))
        assert table == metadata_table([(7, 0, 2, "a")])
        assert len(MetadataTable([], [], [], [])) == 0

    def test_copies_caller_arrays(self):
        steps = np.array([0, 1])
        table = MetadataTable([0, 0], steps, [2, 2], [-1, -1])
        steps[1] = 5
        assert table.step_index.tolist() == [0, 1]
        with pytest.raises(ValueError):
            table.step_index[0] = 1

    @pytest.mark.parametrize("columns, code", [
        (([0], [0, 1], [2, 2], [-1, -1]), "bad_shape"),
        (([0], [0], [1], [1]), "bad_task_code"),
        (([0, 0], [0, 2], [2, 2], [-1, -1]), "bad_step_index"),
        (([0, 0], [0, 0], [1, 0], [-1, -1]), "bad_episode_length"),
        (([0], [0], [1], [0], (7,)), "bad_task_label"),
        # Integer columns only: a float is not truncated, nor is a huge value
        # left to raise OverflowError.
        (([0.9], [0.5], [1.7], [-1]), "malformed_value"),
        (([0], [0], [1], [0.7], ("a",)), "malformed_value"),
        (([2**70], [0], [1], [-1]), "malformed_value"),
        ((np.array([2**63], np.uint64), [0], [1], [-1]), "malformed_value"),
        # numpy forms a list of ints beyond int64 and negatives as float64.
        (([2**63, -1], [0, 0], [1, 1], [-1, -1]), "malformed_value"),
        (([0], [0], [True], [-1]), "malformed_value"),
        ((np.array([0.0]), [0], [1], [-1]), "malformed_value"),
        (([0], [0], [1], [-1], None), "bad_task_label"),
        (([0], [0], [1], [0], "ab"), "bad_task_label"),
    ])
    def test_rejects(self, columns, code):
        with pytest.raises(ValidationError) as exc:
            MetadataTable(*columns)
        assert exc.value.code == code
        if code in ("bad_step_index", "bad_episode_length"):
            assert str(exc.value).startswith("row 1: ")


class TestLoadReadsOnce:
    @pytest.mark.parametrize("dtype_code, dtype", [(0, "<f4"), (1, "<f8")])
    def test_source_id_is_hash_of_file_bytes(self, tmp_path, dtype_code, dtype):
        values = np.random.default_rng(3).standard_normal(12).astype(dtype)
        path = tmp_path / "e.bin"
        write_raw(path, dtype_code=dtype_code, rows=4, dim=3,
                  payload=values.tobytes())
        assert load_embeddings(path).source_id == content_id(path.read_bytes())

    def test_csv_source_id_is_hash_of_file_bytes(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("0.5,1\r\n\n-2,3e4\n")
        ds = load_embeddings(path)
        assert ds.source_id == content_id(path.read_bytes())
        np.testing.assert_array_equal(ds.data, [[0.5, 1.0], [-2.0, 3e4]])

    @staticmethod
    def _opens(path, monkeypatch):
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kw):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
                opened.append(file)
            return real_open(file, *args, **kw)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        load_embeddings(path)
        return len(opened)

    def test_binary_file_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "e.bin"
        save_embeddings(EmbeddingDataset(np.ones((5, 2))), path)
        assert self._opens(path, monkeypatch) == 1

    def test_csv_file_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "e.csv"
        path.write_text("1,1\n1,1\n")
        assert self._opens(path, monkeypatch) == 1


class TestCopyFreeBytes:
    """Hashing and writing use an array's buffer; bytes are unchanged."""

    ARRAYS = {
        "contiguous": lambda rng: rng.standard_normal((6, 4)),
        "transposed": lambda rng: rng.standard_normal((4, 6)).T,
        "strided": lambda rng: rng.standard_normal((12, 8))[::2, 1:5],
        "float32": lambda rng: rng.standard_normal((6, 4)).astype(np.float32),
    }

    @pytest.mark.parametrize("case", sorted(ARRAYS))
    def test_content_id_hashes_tobytes(self, case):
        arr = self.ARRAYS[case](np.random.default_rng(8))
        want = "sha256:" + hashlib.sha256(arr.tobytes()).hexdigest()[:16]
        assert content_id(arr) == want

    @pytest.mark.parametrize("case", sorted(ARRAYS))
    def test_written_bytes(self, tmp_path, case):
        arr = self.ARRAYS[case](np.random.default_rng(9))
        path = tmp_path / "w.bin"
        write_vector_file(arr, path)
        want = HEADER.pack(MAGIC, FORMAT_VERSION, 1, *arr.shape)
        assert path.read_bytes() == want + arr.astype("<f8").tobytes()


class TestRoundTripProperty:
    def test_random_shapes(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(1, 50))
            d = int(rng.integers(1, 20))
            data = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
            path = tmp_path / f"t{trial}.bin"
            save_embeddings(EmbeddingDataset(data), path)
            assert load_embeddings(path).data.tobytes() == data.tobytes()


def _present_pages(array: np.ndarray) -> np.ndarray:
    """Whether each page under ``array`` is mapped into this process."""
    start = array.__array_interface__["data"][0] // mmap.PAGESIZE
    stop = -(-(array.__array_interface__["data"][0] + array.nbytes) // mmap.PAGESIZE)
    with open("/proc/self/pagemap", "rb") as fh:
        fh.seek(start * 8)
        entries = np.frombuffer(fh.read((stop - start) * 8), "<u8")
    return (entries >> np.uint64(63)).astype(bool)


class TestMappedPayload:
    """A binary payload is mapped read-only, not copied, and each row range
    can be handed back to the page cache."""

    @pytest.mark.parametrize("dtype_code, dtype", [(0, "<f4"), (1, "<f8")])
    def test_payload_is_mapped(self, tmp_path, dtype_code, dtype):
        values = np.random.default_rng(4).standard_normal((6, 3)).astype(dtype)
        path = tmp_path / "m.bin"
        write_raw(path, dtype_code=dtype_code, rows=6, dim=3,
                  payload=values.tobytes())
        ds = load_embeddings(path)
        assert ds.data.dtype == np.dtype(dtype) and not ds.data.flags.owndata
        assert not ds.data.flags.writeable
        assert ds.data.tobytes() == values.tobytes()
        ds.check_unchanged()

    @pytest.mark.skipif(not Path("/proc/self/pagemap").exists(),
                        reason="needs /proc/self/pagemap")
    def test_release_rows_drops_their_pages(self, tmp_path):
        rows, dim = 4096, 512  # 16 MiB of float64, 4 KiB a row
        path = tmp_path / "big.bin"
        values = np.random.default_rng(6).standard_normal((rows, dim))
        write_vector_file(values, path)
        ds = load_embeddings(path)
        assert np.array_equal(ds.data, values)  # every page is now mapped
        assert _present_pages(ds.data).all()
        release_rows(ds.data, 1000, 1500)
        present = _present_pages(ds.data)
        assert not present[1001:1500].any() and present[:512].all()
        assert ds.data.tobytes() == values.tobytes()  # paged in again
        release_rows(ds.data, 0, rows)
        assert not _present_pages(ds.data).any()

    def test_release_rows_ignores_memory(self):
        values = np.arange(12.0).reshape(4, 3)
        release_rows(values, 0, 4)
        release_rows(EmbeddingDataset(values).data, 1, 3)
        assert values.tobytes() == np.arange(12.0).tobytes()

    CONFIGS = [
        ScoringConfig(ScoreMethod.NN_L2),
        ScoringConfig(ScoreMethod.LSE),
        ScoringConfig(ScoreMethod.KDE_TARGET),
        ScoringConfig(ScoreMethod.IWR, batch_size=64, num_batches=2, seed=3),
        ScoringConfig(ScoreMethod.IWR, batch_size=64, num_batches=2, seed=3,
                      leave_self_out=True),
    ]

    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5),
           st.sampled_from(["<f4", "<f8"]))
    def test_scores_and_rows_match_memory(self, seed, dim, dtype):
        # Two or three 8192-row scoring jobs in one 2 MiB region: each
        # worker's release drops pages the other is reading.
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((int(rng.integers(2, 40)), dim)).astype(dtype)
        prior = rng.standard_normal((int(rng.integers(8193, 20000)), dim)).astype(dtype)
        with tempfile.TemporaryDirectory() as tmp:
            mapped = []
            for name, values in (("t.bin", target), ("p.bin", prior)):
                path = Path(tmp) / name
                write_raw(path, dtype_code=int(dtype == "<f8"), rows=len(values),
                          dim=dim, payload=values.tobytes())
                mapped.append(load_embeddings(path))
            held = [EmbeddingDataset(np.array(ds.data)) for ds in mapped]
            for config in self.CONFIGS:
                for threads in (1, 2):
                    got = config.score(*mapped, threads)
                    want = config.score(*held, threads)
                    assert got.values.tobytes() == want.values.tobytes(), config
            manifest = select_by_fraction(got, 0.3)
            rows = materialize(manifest, mapped[1])[0].data
            assert rows.tobytes() == materialize(manifest, held[1])[0].data.tobytes()

    def test_long_one_dimensional_target(self, tmp_path):
        # A version-1 payload is not 8-byte aligned, and numpy sums a long
        # unaligned axis in other blocks than an aligned one: a mapped target
        # must still fit to the bits of an in-memory one.
        rng = np.random.default_rng(35)  # a seed whose two sums round apart
        target = 3 * rng.standard_normal((9000, 1)) + 1.7
        prior = rng.standard_normal((50, 1))
        for name, values in (("t.bin", target), ("p.bin", prior)):
            write_vector_file(values, tmp_path / name)
        mapped = [load_embeddings(tmp_path / n) for n in ("t.bin", "p.bin")]
        held = [EmbeddingDataset(v) for v in (target, prior)]
        for config in self.CONFIGS[:3]:
            got, want = config.score(*mapped), config.score(*held)
            assert got.values.tobytes() == want.values.tobytes(), config
