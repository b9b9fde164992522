import builtins
import io
import re
import struct

import numpy as np
import pytest
from conftest import BOM, NOT_UTF8_CSVS, NOT_UTF8_IDS, random_matrix

from specto import (
    FormatError,
    Matrix,
    MatrixContainer,
    container_from_bytes,
    container_to_bytes,
    load_matrix_any,
    parse_matrix_csv,
    write_matrix_file,
)


def _container(rows, cols):
    """A real, unnamed version-1 container of a rows x cols zero payload."""
    return struct.pack("<4sHHII", b"PSPC", 1, 0, rows, cols) + bytes(8 * rows * cols)


class TestContainerBytes:
    def test_real_round_trip(self, rng):
        m = Matrix(rng.standard_normal((4, 4)))
        data = container_to_bytes(MatrixContainer(m, "weights"))
        back = container_from_bytes(data)
        assert back.name == "weights"
        assert not back.complex_storage
        assert np.array_equal(back.matrix.array, m.array)
        assert container_to_bytes(back) == data

    def test_complex_round_trip(self, rng):
        m = random_matrix(rng, 4)
        data = container_to_bytes(MatrixContainer(m, complex_storage=True))
        back = container_from_bytes(data)
        assert back.complex_storage
        assert back.name is None
        assert np.array_equal(back.matrix.array, m.array)
        assert container_to_bytes(back) == data

    def test_real_payload_stored_compactly(self):
        data = container_to_bytes(MatrixContainer(Matrix(np.eye(4))))
        assert len(data) == 16 + 4 * 4 * 8

    def test_complex_values_need_complex_storage(self, rng):
        with pytest.raises(ValueError, match="nonzero imaginary parts; complex_storage required"):
            container_to_bytes(MatrixContainer(random_matrix(rng, 2)))

    def test_complex_flag_preserved_for_real_values(self):
        # a complex-flagged file holding real values must survive unchanged
        c = MatrixContainer(Matrix(np.eye(2)), name=None, complex_storage=True)
        data = container_to_bytes(c)
        assert container_to_bytes(container_from_bytes(data)) == data

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            container_from_bytes(b"NOPE" + bytes(20))

    def test_bad_version(self):
        data = bytearray(container_to_bytes(MatrixContainer(Matrix(np.eye(2)))))
        data[4] = 9
        with pytest.raises(FormatError, match="version"):
            container_from_bytes(bytes(data))

    def test_unknown_flags(self):
        data = bytearray(container_to_bytes(MatrixContainer(Matrix(np.eye(2)))))
        data[6] = 0x02
        with pytest.raises(FormatError, match="flag"):
            container_from_bytes(bytes(data))

    def test_short_header(self):
        with pytest.raises(FormatError, match="header"):
            container_from_bytes(b"PSPC\x01\x00")

    def test_truncated_payload(self):
        data = container_to_bytes(MatrixContainer(Matrix(np.eye(3))))
        with pytest.raises(FormatError, match="truncated"):
            container_from_bytes(data[:-1])

    def test_trailing_garbage_rejected(self):
        data = container_to_bytes(MatrixContainer(Matrix(np.eye(2))))
        with pytest.raises(FormatError, match="dangling"):
            container_from_bytes(data + b"xy")

    def test_name_length_mismatch(self):
        data = container_to_bytes(MatrixContainer(Matrix(np.eye(2)), "ab"))
        with pytest.raises(FormatError, match="footer length"):
            container_from_bytes(data + b"z")

    def test_name_footer_not_utf8_names_its_offset(self):
        data = container_to_bytes(MatrixContainer(Matrix(np.eye(2)), "ab"))
        with pytest.raises(FormatError, match=r"^<bytes>: name footer is not UTF-8 at offset 52$"):
            container_from_bytes(data[:-2] + b"\xff\xfe")  # header 16 + payload 32 + length 4

    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2)])
    def test_non_square_rejected_at_offset_8(self, rows, cols):
        with pytest.raises(FormatError, match=f"square matrix, got {rows}x{cols} at offset 8"):
            container_from_bytes(_container(rows, cols))

    def test_nan_payload_rejected(self):
        data = bytearray(container_to_bytes(MatrixContainer(Matrix(np.eye(1)))))
        data[16:24] = np.array([np.nan]).tobytes()
        with pytest.raises(ValueError, match="finite"):
            container_from_bytes(bytes(data))


class TestContainerFiles:
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_storage_is_complex_only_for_imaginary_parts(self, tmp_path, rng, complex_values):
        m = random_matrix(rng, 4) if complex_values else Matrix(rng.standard_normal((4, 4)))
        p = tmp_path / "m.pspc"
        write_matrix_file(p, m)
        data = p.read_bytes()
        assert struct.unpack_from("<H", data, 6) == (int(complex_values),)
        assert len(data) == 16 + 4 * 4 * 8 * (1 + complex_values)
        assert data == container_to_bytes(MatrixContainer(m, complex_storage=complex_values))

    def test_file_round_trip(self, tmp_path, rng):
        m = random_matrix(rng, 3)
        p = tmp_path / "m.pspc"
        write_matrix_file(p, m, name="gate")
        got, name = load_matrix_any(p)
        assert name == "gate"
        assert np.array_equal(got.array, m.array)

    def test_error_names_file(self, tmp_path):
        p = tmp_path / "broken.pspc"
        p.write_bytes(b"PSPC" + bytes(4))
        with pytest.raises(FormatError, match="broken.pspc"):
            load_matrix_any(p)


class TestCsv:
    def _parse(self, text):
        return parse_matrix_csv(text.encode("utf-8"))

    def test_identity(self):
        m = self._parse("1,0\n0,1\n")
        assert np.array_equal(m.array, np.eye(2))

    def test_scientific_and_negative(self):
        m = self._parse("1e0,2.5\n-3,4\n")
        np.testing.assert_allclose(m.array.real, [[1.0, 2.5], [-3.0, 4.0]])

    def test_ragged_row_reports_line(self):
        with pytest.raises(FormatError, match="line 2"):
            self._parse("1,2\n3\n")

    def test_non_numeric_token(self):
        with pytest.raises(FormatError, match="'x'"):
            self._parse("1,x\n")

    def test_empty_file(self):
        with pytest.raises(FormatError, match="no numeric rows"):
            self._parse("")

    def test_non_square_names_the_path(self, tmp_path):
        p = tmp_path / "r.csv"
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: expected a square matrix, got 2x3$"):
            parse_matrix_csv(b"1,2,3\n4,5,6\n", source=str(p))

    def test_byte_order_mark_and_crlf_read_as_the_plain_file(self):
        plain = b"1,2\n0,0.5\n"
        crlf = plain.replace(b"\n", b"\r\n")
        matrices = [parse_matrix_csv(data) for data in [plain, crlf, BOM + crlf, BOM + plain]]
        assert matrices[0].array.tobytes() == np.array([[1, 2], [0, 0.5]], dtype=complex).tobytes()
        assert all(m.array.tobytes() == matrices[0].array.tobytes() for m in matrices)

    def test_blank_lines_skipped(self):
        m = self._parse("1,2\n\n3,4\n")
        assert m.shape == (2, 2)

    @pytest.mark.parametrize("data, offset", NOT_UTF8_CSVS, ids=NOT_UTF8_IDS)
    def test_not_utf8_names_the_file_offset(self, tmp_path, data, offset):
        # the utf-8-sig codec counts from after a byte-order mark; the message counts from the file's start
        with pytest.raises(FormatError, match=f"^<bytes>: not UTF-8 at offset {offset}$"):
            parse_matrix_csv(data)
        p = tmp_path / "m.csv"
        p.write_bytes(data)
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: not UTF-8 at offset {offset}$"):
            load_matrix_any(p)


class TestSniffing:
    def test_container_by_magic(self, tmp_path, rng):
        m = random_matrix(rng, 2)
        p = tmp_path / "anything.bin"
        write_matrix_file(p, m, name="inner")
        got, name = load_matrix_any(p)
        assert name == "inner"
        assert np.array_equal(got.array, m.array)

    @pytest.mark.parametrize("suffix", [".csv", ".pspc"])
    def test_non_square_file_is_format_error(self, tmp_path, suffix):
        p = tmp_path / f"wide{suffix}"
        if suffix == ".csv":
            p.write_text("1,0,0\n0,1,0\n")
        else:
            p.write_bytes(_container(2, 3))
        with pytest.raises(FormatError, match=r"wide\.(csv|pspc): expected a square matrix, got 2x3"):
            load_matrix_any(p)

    def test_csv_is_read_from_disk_once(self, tmp_path, monkeypatch):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0,2\n")
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(p):
                opened.append(args[0] if args else kwargs.get("mode", "r"))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)  # Path.open calls io.open
        monkeypatch.setattr(builtins, "open", counting_open)
        got, _ = load_matrix_any(p)
        assert opened == ["rb"]
        assert got.array[1, 1] == 2.0

    def test_csv_fallback_uses_stem(self, tmp_path):
        p = tmp_path / "mat.csv"
        p.write_text("1,0\n0,2\n")
        got, name = load_matrix_any(p)
        assert name == "mat"
        assert got.array[1, 1] == 2.0
