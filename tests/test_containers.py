import numpy as np
import pytest
from conftest import random_matrix

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


class TestContainerBytes:
    def test_real_round_trip(self, rng):
        m = Matrix(rng.standard_normal((3, 5)))
        c = MatrixContainer.wrap(m, "weights")
        data = container_to_bytes(c)
        back = container_from_bytes(data)
        assert back.name == "weights"
        assert not back.complex_storage
        assert np.array_equal(back.matrix.array, m.array)
        assert container_to_bytes(back) == data

    def test_complex_round_trip(self, rng):
        m = random_matrix(rng, 4)
        data = container_to_bytes(MatrixContainer.wrap(m))
        back = container_from_bytes(data)
        assert back.complex_storage
        assert back.name is None
        assert np.array_equal(back.matrix.array, m.array)
        assert container_to_bytes(back) == data

    def test_real_payload_stored_compactly(self):
        data = container_to_bytes(MatrixContainer.wrap(Matrix(np.eye(4))))
        assert len(data) == 16 + 4 * 4 * 8

    def test_complex_flag_preserved_for_real_values(self):
        # a complex-flagged file holding real values must survive unchanged
        c = MatrixContainer(Matrix(np.eye(2)), name=None, complex_storage=True)
        data = container_to_bytes(c)
        assert container_to_bytes(container_from_bytes(data)) == data

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            container_from_bytes(b"NOPE" + bytes(20))

    def test_bad_version(self):
        data = bytearray(container_to_bytes(MatrixContainer.wrap(Matrix(np.eye(2)))))
        data[4] = 9
        with pytest.raises(FormatError, match="version"):
            container_from_bytes(bytes(data))

    def test_unknown_flags(self):
        data = bytearray(container_to_bytes(MatrixContainer.wrap(Matrix(np.eye(2)))))
        data[6] = 0x02
        with pytest.raises(FormatError, match="flag"):
            container_from_bytes(bytes(data))

    def test_short_header(self):
        with pytest.raises(FormatError, match="header"):
            container_from_bytes(b"PSPC\x01\x00")

    def test_truncated_payload(self):
        data = container_to_bytes(MatrixContainer.wrap(Matrix(np.eye(3))))
        with pytest.raises(FormatError, match="truncated"):
            container_from_bytes(data[:-1])

    def test_trailing_garbage_rejected(self):
        data = container_to_bytes(MatrixContainer.wrap(Matrix(np.eye(2))))
        with pytest.raises(FormatError, match="dangling"):
            container_from_bytes(data + b"xy")

    def test_name_length_mismatch(self):
        data = container_to_bytes(MatrixContainer.wrap(Matrix(np.eye(2)), "ab"))
        with pytest.raises(FormatError, match="footer length"):
            container_from_bytes(data + b"z")

    def test_nan_payload_rejected(self):
        data = bytearray(container_to_bytes(MatrixContainer.wrap(Matrix(np.eye(1)))))
        data[16:24] = np.array([np.nan]).tobytes()
        with pytest.raises(ValueError, match="finite"):
            container_from_bytes(bytes(data))


class TestContainerFiles:
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
    def _parse(self, tmp_path, text):
        p = tmp_path / "m.csv"
        p.write_text(text, encoding="utf-8")
        return parse_matrix_csv(p)

    def test_identity(self, tmp_path):
        m = self._parse(tmp_path, "1,0\n0,1\n")
        assert np.array_equal(m.array, np.eye(2))

    def test_scientific_and_negative(self, tmp_path):
        m = self._parse(tmp_path, "1e0,2.5\n-3,4\n")
        np.testing.assert_allclose(m.array.real, [[1.0, 2.5], [-3.0, 4.0]])

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(FormatError, match="line 2"):
            self._parse(tmp_path, "1,2\n3\n")

    def test_non_numeric_token(self, tmp_path):
        with pytest.raises(FormatError, match="'x'"):
            self._parse(tmp_path, "1,x\n")

    def test_empty_file(self, tmp_path):
        with pytest.raises(FormatError, match="no numeric rows"):
            self._parse(tmp_path, "")

    def test_blank_lines_skipped(self, tmp_path):
        m = self._parse(tmp_path, "1,2\n\n3,4\n")
        assert m.shape == (2, 2)


class TestSniffing:
    def test_container_by_magic(self, tmp_path, rng):
        m = random_matrix(rng, 2)
        p = tmp_path / "anything.bin"
        write_matrix_file(p, m, name="inner")
        got, name = load_matrix_any(p)
        assert name == "inner"
        assert np.array_equal(got.array, m.array)

    def test_csv_fallback_uses_stem(self, tmp_path):
        p = tmp_path / "mat.csv"
        p.write_text("1,0\n0,2\n")
        got, name = load_matrix_any(p)
        assert name == "mat"
        assert got.array[1, 1] == 2.0
