"""Dataset container, binary/CSV formats, and metadata sidecar."""

import builtins
import hashlib
import io
import os
import struct

import numpy as np
import pytest

from iwre import _validation, dataset
from iwre.dataset import (
    FORMAT_VERSION,
    MAGIC,
    EmbeddingDataset,
    RowMetadata,
    content_id,
    load_embeddings,
    load_metadata,
    pair_metadata,
    save_embeddings,
    save_metadata,
    write_vector_file,
)
from iwre.errors import ValidationError

HEADER = struct.Struct("<4sHBQI")


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

    def test_rejects_non_finite(self):
        data = np.zeros((3, 2))
        data[1, 0] = np.nan
        with pytest.raises(ValidationError) as exc:
            EmbeddingDataset(data)
        assert exc.value.code == "non_finite"
        assert "row 1" in str(exc.value)

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
        assert ds.data.flags.c_contiguous and ds.data.flags.aligned
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
            load_embeddings(path, format=fmt)
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
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1.0\n2.0,3.0\n")
        ds = load_embeddings(path, format="csv")
        assert ds.rows == 2 and ds.dim == 2
        np.testing.assert_array_equal(ds.data, [[0.0, 1.0], [2.0, 3.0]])

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0,1\n2,3,4\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path, format="csv")
        assert exc.value.code == "dim_mismatch"

    def test_bad_token(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("0,abc\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path, format="csv")
        assert exc.value.code == "malformed_value"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path, format="csv")
        assert exc.value.code == "empty_dataset"

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"0,1\n2,\xe93\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path, format="csv")
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
            load_embeddings(path, format="csv")
        assert exc.value.code == code
        assert str(path) in str(exc.value) and "line 3 (row 1)" in str(exc.value)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("0,nan\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path, format="csv")
        assert exc.value.code == "non_finite"

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("0\n")
        with pytest.raises(ValidationError) as exc:
            load_embeddings(path, format="parquet")
        assert exc.value.code == "bad_format"


class TestRowMetadata:
    def test_single_episode_of_three(self, tmp_path):
        records = [RowMetadata(0, i, 3) for i in range(3)]
        path = tmp_path / "m.csv"
        save_metadata(records, path)
        back = load_metadata(path)
        assert back == records
        assert [(r.episode_id, r.step_index, r.episode_length) for r in back] == [
            (0, 0, 3), (0, 1, 3), (0, 2, 3)
        ]

    def test_step_index_out_of_bounds(self):
        with pytest.raises(ValidationError) as exc:
            RowMetadata(0, 5, 3)
        assert exc.value.code == "bad_step_index"

    def test_two_episodes(self):
        records = [RowMetadata(0, 0, 2), RowMetadata(0, 1, 2), RowMetadata(1, 0, 1)]
        assert [r.episode_id for r in records] == [0, 0, 1]

    def test_task_label_round_trip(self, tmp_path):
        records = [
            RowMetadata(0, 0, 2, "pick, then place"),
            RowMetadata(0, 1, 2, None),
        ]
        path = tmp_path / "m.csv"
        save_metadata(records, path)
        assert load_metadata(path) == records

    def test_bad_step_in_file_names_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "episode_id,step_index,episode_length,task_label\n0,5,3,\n"
        )
        with pytest.raises(ValidationError) as exc:
            load_metadata(path)
        assert exc.value.code == "bad_step_index"
        assert "row 0" in str(exc.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,0,3,\n")
        with pytest.raises(ValidationError) as exc:
            load_metadata(path)
        assert exc.value.code == "malformed_header"

    def test_pairing_law(self):
        ds = EmbeddingDataset(np.zeros((2, 2)))
        good = [RowMetadata(0, 0, 2), RowMetadata(0, 1, 2)]
        assert pair_metadata(ds, good) is good
        with pytest.raises(ValidationError) as exc:
            pair_metadata(ds, good[:1])
        assert exc.value.code == "row_count_mismatch"


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
        ds = load_embeddings(path, format="csv")
        assert ds.source_id == content_id(path.read_bytes())
        np.testing.assert_array_equal(ds.data, [[0.5, 1.0], [-2.0, 3e4]])

    @staticmethod
    def _opens(path, monkeypatch, **kwargs):
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kw):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
                opened.append(file)
            return real_open(file, *args, **kw)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        load_embeddings(path, **kwargs)
        return len(opened)

    def test_binary_file_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "e.bin"
        save_embeddings(EmbeddingDataset(np.ones((5, 2))), path)
        assert self._opens(path, monkeypatch) == 1

    def test_csv_file_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "e.csv"
        path.write_text("1,1\n1,1\n")
        assert self._opens(path, monkeypatch, format="csv") == 1


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
