import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import NOT_UTF8_CSVS, NOT_UTF8_IDS

from specto import (
    Matrix,
    MatrixContainer,
    load_matrix_any,
    parse_report,
    serialize_report,
    write_matrix_file,
)
import specto.cli as cli
import specto.matrix as matrix
import specto.pseudospectrum as pseudospectrum
from specto import StabilizerConfig
from specto.cli import main
from specto.rnn import TrainConfig, synthetic_digits, write_idx_images, write_idx_labels


SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def identity_csv(tmp_path):
    p = tmp_path / "ident.csv"
    p.write_text("1,0\n0,1\n")
    return p


@pytest.fixture
def jordan_file(tmp_path):
    p = tmp_path / "jordan.pspc"
    write_matrix_file(p, Matrix([[0.0, 1.0], [0.0, 0.0]]), name="jordan")
    return p


class TestAnalyze:
    def test_identity_portrait(self, tmp_path, identity_csv, capsys):
        out = tmp_path / "out"
        code = run(["analyze", identity_csv, "--out", out, "--nx", "61", "--ny", "61", "--eps", "0.3"])
        assert code == 0
        report = parse_report((out / "report.json").read_text())
        m = report.matrices[0]
        assert m.name == "ident"
        assert m.stable
        assert m.henrici == pytest.approx(0.0, abs=1e-12)
        assert m.contour_counts == [1]
        svg = (out / "portrait-ident.svg").read_text()
        assert 'id="unit-circle"' in svg
        assert (out / "contours-ident.csv").exists()
        assert "stable" in capsys.readouterr().out

    def test_jordan_metrics(self, tmp_path, jordan_file):
        out = tmp_path / "out"
        code = run(["analyze", jordan_file, "--out", out, "--nx", "41", "--ny", "41"])
        assert code == 0
        m = parse_report((out / "report.json").read_text()).matrices[0]
        assert m.name == "jordan"
        assert m.stable  # rho = 0
        assert m.henrici == pytest.approx(np.sqrt(2), abs=1e-12)
        assert m.kreiss_lower_bound is not None

    def test_malformed_input_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.pspc"
        bad.write_bytes(b"PSPC" + bytes(8))
        assert run(["analyze", bad, "--out", tmp_path / "o"]) == 3
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path):
        assert run(["analyze", tmp_path / "nope.csv", "--out", tmp_path / "o"]) == 3

    def test_non_square_exit_3(self, tmp_path):
        p = tmp_path / "rect.csv"
        p.write_text("1,2,3\n4,5,6\n")
        assert run(["analyze", p, "--out", tmp_path / "o"]) == 3

    def test_bad_eps_exit_2(self, tmp_path, identity_csv):
        assert run(["analyze", identity_csv, "--out", tmp_path / "o", "--eps", "0.5,0.1"]) == 2

    def test_non_numeric_eps_exit_2_with_one_line(self, tmp_path, identity_csv, capsys):
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, "--out", out, "--eps", "1e-3,abc"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "specto: usage error: --eps expects comma-separated floats, got '1e-3,abc'\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "box", [["-2", "2", "-1e-3", "1"], ["-2e0", "2", "-1", "1"], ["-.5", "2.", "-1_0.0", "-1E+0"]]
    )
    def test_negative_box_values_in_any_float_notation(self, tmp_path, identity_csv, box):
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, "--box", *box, "--nx", "9", "--ny", "9", "--out", out]) == 0
        assert json.loads((out / "report.json").read_text())["config"]["box"] == [float(v) for v in box]

    @pytest.mark.parametrize("box", [["-inf", "2", "-1", "1"], ["-2", "2", "-NaN", "1"]])
    def test_negative_non_finite_box_is_one_usage_line(self, tmp_path, identity_csv, capsys, box):
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, "--box", *box, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("specto: usage error:") and err.count("\n") == 1
        assert not out.exists()

    def test_box_with_too_few_values_exit_2(self, tmp_path, identity_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", identity_csv, "--box", "-2", "2", "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert "argument --box: expected 4 arguments" in capsys.readouterr().err

    def test_byte_order_mark_and_crlf_csv_analyze_to_the_plain_report(self, tmp_path):
        plain = b"1,2\n0,0.5\n"
        crlf = plain.replace(b"\n", b"\r\n")
        reports = []
        for tag, data in [("plain", plain), ("crlf", crlf), ("bom", b"\xef\xbb\xbf" + crlf)]:
            d = tmp_path / tag
            d.mkdir()
            (d / "w.csv").write_bytes(data)  # the same name: report.json records the stem
            assert run(["analyze", d / "w.csv", "--nx", "9", "--ny", "9", "--out", d / "o"]) == 0
            reports.append((d / "o" / "report.json").read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("eps", ["nan", "0.1,inf", ""])  # "" lists no level, like ","
    def test_non_finite_eps_exit_2_before_any_output(self, tmp_path, identity_csv, capsys, command, eps):
        inputs = [identity_csv] * (1 if command == "analyze" else 2)
        out = tmp_path / "o"
        assert run([command, *inputs, "--out", out, "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "usage error" in captured.err and "finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_stability_tol_exit_2_before_any_output(self, tmp_path, identity_csv, capsys, command, tol):
        inputs = [identity_csv] * (1 if command == "analyze" else 2)
        out = tmp_path / "o"
        assert run([command, *inputs, "--out", out, "--stability-tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "usage error" in captured.err and "--stability-tol" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_zero_stability_tol_accepted(self, tmp_path, identity_csv):
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, "--out", out, "--nx", "21", "--ny", "21", "--stability-tol", "0"]) == 0
        assert parse_report((out / "report.json").read_text()).matrices[0].stable  # rho = 1 <= 1 + 0

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["analyze"])  # missing --out and inputs
        assert exc.value.code == 2

    def test_duplicate_names_disambiguated(self, tmp_path, identity_csv):
        other = tmp_path / "sub"
        other.mkdir()
        twin = other / "ident.csv"
        twin.write_text("2,0\n0,2\n")
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, twin, "--out", out, "--nx", "21", "--ny", "21"]) == 0
        names = [m.name for m in parse_report((out / "report.json").read_text()).matrices]
        assert names == ["ident", "ident-2"]

    def test_suffixed_names_do_not_collide_with_input_names(self, tmp_path):
        # the second a.csv becomes a-2, so the input named a-2 must take another name
        paths = []
        for k, sub in enumerate(("x", "y", "z")):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / ("a-2.csv" if sub == "z" else "a.csv"))
            paths[-1].write_text(f"{k + 1},0\n0,1\n")
        out = tmp_path / "o"
        assert run(["analyze", *paths, "--out", out, "--nx", "9", "--ny", "9"]) == 0
        matrices = parse_report((out / "report.json").read_text()).matrices
        names = [m.name for m in matrices]
        assert names == ["a", "a-2", "a-2-2"]
        assert [m.spectral_radius for m in matrices] == [1.0, 2.0, 3.0]
        assert sorted(p.name for p in out.glob("contours-*.csv")) == sorted(f"contours-{n}.csv" for n in names)
        assert sorted(p.name for p in out.glob("portrait-*.svg")) == sorted(f"portrait-{n}.svg" for n in names)

    def test_nan_in_csv_exit_3(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("1,0\n0,nan\n")
        assert run(["analyze", p, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert "input error" in err and "nan.csv" in err and "line 2" in err

    def test_inf_in_container_exit_3(self, tmp_path, capsys):
        p = tmp_path / "inf.pspc"
        payload = np.array([1.0, 0.0, np.inf, 1.0], dtype="<f8").tobytes()
        p.write_bytes(b"PSPC" + struct.pack("<HHII", 1, 0, 2, 2) + payload)
        assert run(["analyze", p, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert "input error" in err and "inf.pspc" in err and "offset 32" in err

    def test_huge_entries_analyzed(self, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text("1e200,2e200\n0,1e200\n")
        out = tmp_path / "o"
        assert run(["analyze", p, "--out", out, "--nx", "21", "--ny", "21"]) == 0
        m = parse_report((out / "report.json").read_text()).matrices[0]
        assert m.henrici == pytest.approx(np.sqrt(8) / 3, abs=1e-12)
        assert m.schur_departure == pytest.approx(2e200, rel=1e-12)

    def test_overflowing_spectrum_exit_4(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        p.write_text("1e308,-1e308\n1e308,1e308\n")  # eigenvalues 1e308 +- 1e308i
        assert run(["analyze", p, "--out", tmp_path / "o"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("specto: numerical failure:") and err.count("\n") == 1

    def test_infinite_box_exit_2(self, tmp_path, identity_csv, capsys):
        assert run(["analyze", identity_csv, "--out", tmp_path / "o", "--box", "0", "inf", "0", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("specto: usage error:") and err.count("\n") == 1

    def test_reports_round_trip_as_text(self, tmp_path, identity_csv, jordan_file):
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, jordan_file, "--out", out, "--nx", "21", "--ny", "21"]) == 0
        text = (out / "report.json").read_text()
        assert serialize_report(parse_report(text)) == text

    def test_timing_flag_controls_wall_time(self, tmp_path, identity_csv, capsys):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["analyze", identity_csv, "--out", out1, "--nx", "21", "--ny", "21"]) == 0
        assert capsys.readouterr().err == ""
        assert run(["analyze", identity_csv, "--out", out2, "--nx", "21", "--ny", "21", "--timing"]) == 0
        blas, line = capsys.readouterr().err.splitlines()
        assert blas.startswith("blas: ")
        name, seconds, unit, evaluated, of, total, *rest = line.split()
        assert name == "ident:" and float(seconds) > 0 and unit == "s,"
        assert of == "of" and rest == ["nodes", "evaluated"]
        assert 0 < int(evaluated) <= int(total) == 21 * 21
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_timing_counts_the_svds_that_ran(self, tmp_path, rng, capsys, monkeypatch):
        path = tmp_path / "w.pspc"
        write_matrix_file(path, Matrix(rng.standard_normal((6, 6)) * 0.4), name="w")
        stack, compute_fields, sizes, fields = pseudospectrum._sigma_min_stack, cli.compute_fields, [], []

        def recording(a, lams, spare=None):
            sizes.append(lams.size)
            return stack(a, lams, spare)

        def kept(*args, **kwargs):
            fields.extend(compute_fields(*args, **kwargs))
            return fields

        monkeypatch.setattr(pseudospectrum, "_sigma_min_stack", recording)
        monkeypatch.setattr(cli, "compute_fields", kept)
        assert run(["analyze", path, "--out", tmp_path / "o", "--nx", "41", "--ny", "41", "--timing"]) == 0
        evaluated = int(capsys.readouterr().err.splitlines()[1].split()[3])
        assert evaluated == sum(sizes) == fields[0].evaluated
        assert evaluated < int(fields[0].exact.sum())  # a real matrix on its auto grid is folded

    @pytest.mark.parametrize(
        "text, eps, overflow",
        [
            ("1.7e308\n", "1e-3", "Kreiss"),  # (rho_eps - 1)/eps
            ("1e308,1e308\n0,1e-300\n", "1e-3", "Kreiss"),
            ("1.5e308,1.5e308\n0,0\n", "1e-3", "Kreiss"),
            ("1.5e308,1.5e308\n0,0\n", "1e300", "singular values"),  # the 2-norm
        ],
    )
    def test_overflowing_report_value_exit_4(self, tmp_path, capsys, text, eps, overflow):
        p = tmp_path / "w.csv"
        p.write_text(text)
        assert run(["analyze", p, "--out", tmp_path / "o", "--nx", "21", "--ny", "21", "--eps", eps]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"specto: numerical failure: {overflow}") and err.count("\n") == 1

    def test_json_outputs_are_stdlib_json(self, tmp_path, identity_csv, jordan_file, capsys):
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, jordan_file, "--out", out / "ana", "--nx", "21", "--ny", "21"]) == 0
        assert run(["compare", identity_csv, jordan_file, "--out", out / "cmp", "--nx", "21", "--ny", "21"]) == 0
        assert run(
            ["train", "--task", "adding", "--out", out / "run", "--hidden", "3", "--epochs", "1",
             "--train-size", "20", "--test-size", "10", "--seq-len", "4"]
        ) == 0
        paths = sorted(out.rglob("*.json"))
        assert [p.name for p in paths] == ["report.json", "compare.json", "report-epoch001.json"]
        for p in paths:
            text = p.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestStabilize:
    def test_gain_printed_round_trips(self, tmp_path, capsys):
        src = tmp_path / "d.csv"
        src.write_text("2,0\n0,0.5\n")
        dst = tmp_path / "out.pspc"
        assert run(["stabilize", src, dst, "-m", "200", "--seed", "1"]) == 0
        printed = capsys.readouterr().out.strip()
        assert float(printed) == pytest.approx(2.0, abs=1e-9)
        assert printed == repr(float(printed))  # the shortest text of the exact double
        got, _ = load_matrix_any(dst)
        np.testing.assert_allclose(got.array.real, np.diag([1.0, 0.25]), atol=1e-9)

    def test_identity_unchanged(self, tmp_path, capsys):
        src = tmp_path / "i.csv"
        src.write_text("1,0\n0,1\n")
        dst = tmp_path / "i.pspc"
        assert run(["stabilize", src, dst]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_bitwise_identical(self, tmp_path, rng, capsys):
        src = tmp_path / "w.pspc"
        write_matrix_file(src, Matrix(rng.standard_normal((5, 5))), name="w")
        a, b = tmp_path / "a.pspc", tmp_path / "b.pspc"
        run(["stabilize", src, a, "--seed", "3"])
        run(["stabilize", src, b, "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_nameless_container_named_after_file(self, tmp_path, capsys):
        src = tmp_path / "w.pspc"
        write_matrix_file(src, Matrix([[2.0, 0.0], [0.0, 1.0]]))
        dst = tmp_path / "out.pspc"
        assert run(["stabilize", src, dst]) == 0
        assert load_matrix_any(dst)[1] == "w"

    def test_one_iteration_reports_a_radius_above_one(self, tmp_path, capsys):
        # one iteration underestimates sigma_max = 2, so W_s = W/gain keeps rho > 1
        src = tmp_path / "d.csv"
        src.write_text("2,0\n0,1\n")
        dst = tmp_path / "out.pspc"
        assert run(["stabilize", src, dst, "-m", "1"]) == 0
        captured = capsys.readouterr()
        gain = float(captured.out)
        assert captured.out.split() == [repr(gain)]  # stdout stays the gain alone
        label, _, value = captured.err.strip().partition("=")
        assert label == "rho(W_s)"
        assert float(value) > 1.0
        assert float(value) == pytest.approx(2.0 / gain, rel=1e-12)

    @pytest.mark.parametrize(
        "name, matrix, message",
        [
            ("z.csv", None, "cannot stabilize the zero matrix"),
            ("c.pspc", Matrix([[1.0, 1j], [0.0, 0.5]]), "stabilize requires a real-valued matrix"),
        ],
        ids=["zero", "complex"],
    )
    def test_zero_matrix_exit_2(self, tmp_path, capsys, name, matrix, message):
        # analyze takes both inputs; stabilize rejects them as usage errors
        src = tmp_path / name
        if matrix is None:
            src.write_text("0,0\n0,0\n")
        else:
            write_matrix_file(src, matrix, name="c")
        dst = tmp_path / "o.pspc"
        assert run(["stabilize", src, dst]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"specto: usage error: {message}\n"
        assert not dst.exists()
        assert run(["analyze", src, "--out", tmp_path / "a", "--nx", "5", "--ny", "5"]) == 0

    def test_defaults_are_the_config_defaults(self, tmp_path, monkeypatch):
        seen = []

        def fake(w, cfg):
            seen.append(cfg)
            raise StopIteration

        monkeypatch.setattr(cli, "stabilize", fake)
        src = tmp_path / "w.csv"
        src.write_text("1,2\n3,4\n")
        with pytest.raises(StopIteration):
            run(["stabilize", src, tmp_path / "o.pspc"])
        assert seen == [StabilizerConfig()]

    @pytest.mark.parametrize("entry, code", [("1e307", 0), ("1e308", 4), ("1e-320", 0)])
    def test_extreme_scales(self, tmp_path, capsys, entry, code):
        # the iteration runs on W/2^k: no vanishing vector, and only the gain 2e308 overflows
        src = tmp_path / "w.csv"
        src.write_text(f"{entry},{entry}\n{entry},{entry}\n")
        dst = tmp_path / "o.pspc"
        assert run(["stabilize", src, dst, "-m", "5"]) == code
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "Warning" not in captured.err
        assert dst.exists() == (code == 0)
        if code == 0:
            # a subnormal gain is rounded to a multiple of 2^-1074
            assert float(captured.out) == pytest.approx(2 * float(entry), rel=1e-15, abs=2.0**-1074)
            label, _, rho = captured.err.strip().partition("=")
            assert label == "rho(W_s)" and float(rho) == pytest.approx(1.0, abs=1e-14)
        else:
            assert captured.err.startswith("specto: numerical failure:") and "float range" in captured.err


class TestCompare:
    def test_stabilized_deltas(self, tmp_path, rng, capsys):

        w = Matrix(rng.standard_normal((4, 4)))
        before = tmp_path / "before.pspc"
        after = tmp_path / "after.pspc"
        write_matrix_file(before, w, name="w")
        run(["stabilize", before, after, "-m", "200"])
        out = tmp_path / "cmp"
        assert run(["compare", before, after, "--out", out, "--nx", "41", "--ny", "41"]) == 0
        doc = json.loads((out / "compare.json").read_text())
        assert abs(doc["henrici_delta"]) <= 1e-9
        assert doc["after"]["stable"] is True
        assert (out / "compare.svg").exists()

    def test_identical_inputs_zero_delta(self, tmp_path, identity_csv):

        out = tmp_path / "cmp"
        assert run(["compare", identity_csv, identity_csv, "--out", out, "--nx", "21", "--ny", "21"]) == 0
        doc = json.loads((out / "compare.json").read_text())
        assert doc["henrici_delta"] == 0.0
        assert doc["node_counts_before"] == doc["node_counts_after"]

    def test_dimension_mismatch_exit_3(self, tmp_path, identity_csv):
        big = tmp_path / "big.csv"
        big.write_text("1,0,0\n0,1,0\n0,0,1\n")
        assert run(["compare", identity_csv, big, "--out", tmp_path / "o"]) == 3


class TestCertifiedField:
    @pytest.mark.parametrize("eps", [[], ["--eps", "0.02,0.15,0.4"]])
    def test_outputs_match_the_exact_field(self, tmp_path, rng, capsys, monkeypatch, eps):
        paths = []
        for k, scale in enumerate((0.3, 0.6)):
            paths.append(tmp_path / f"w{k}.pspc")
            write_matrix_file(paths[-1], Matrix(rng.standard_normal((8, 8)) * scale), name=f"w{k}")
        compute_fields, evaluated = cli.compute_fields, []

        def certified(jobs, levels=None, *, workers=None):
            fields = compute_fields(jobs, levels, workers=workers)
            evaluated.extend(field.exact.mean() for field in fields)
            return fields

        def exact(jobs, levels=None, *, workers=None):
            return compute_fields(jobs, workers=workers)

        runs = {}
        for tag, patched in (("certified", certified), ("exact", exact)):
            monkeypatch.setattr(cli, "compute_fields", patched)
            out = tmp_path / tag
            grid = ["--nx", "61", "--ny", "53", *eps]
            assert run(["analyze", *paths, "--out", out / "ana", *grid]) == 0
            assert run(["compare", *paths, "--out", out / "cmp", *grid]) == 0
            files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
            runs[tag] = (files, capsys.readouterr())
        assert len(evaluated) == 4 and max(evaluated) < 1.0  # every field skipped some nodes
        assert sorted(runs["certified"][0]) == sorted(runs["exact"][0])
        assert runs["certified"] == runs["exact"]


def _outputs(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestSeveralMatrices:
    GRID = ("--nx", "41", "--ny", "37")

    @pytest.fixture
    def gates(self, tmp_path, rng):
        paths = []
        for k, (n, complex_entries) in enumerate(((8, False), (5, True), (8, False))):
            a = rng.standard_normal((n, n)) * 0.4
            if complex_entries:
                a = a + 0.4j * rng.standard_normal((n, n))
            paths.append(tmp_path / f"g{k}.pspc")
            write_matrix_file(paths[-1], Matrix(a), name=f"g{k}")
        return paths

    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, gates, capsys):
        runs = []
        for workers in ("1", "3"):
            out = tmp_path / f"workers{workers}"
            assert run(["analyze", *gates, "--out", out / "ana", *self.GRID, "--workers", workers]) == 0
            assert run(["compare", gates[0], gates[2], "--out", out / "cmp", *self.GRID, "--workers", workers]) == 0
            runs.append((_outputs(out), capsys.readouterr()))
        assert len(runs[0][0]) == 3 * 2 + 1 + 2
        assert runs[0] == runs[1]

    def test_each_matrix_as_when_analyzed_alone(self, tmp_path, gates, capsys):
        assert run(["analyze", *gates, "--out", tmp_path / "all", *self.GRID]) == 0
        together = _outputs(tmp_path / "all")
        lines = capsys.readouterr().out.splitlines()
        report = json.loads(together.pop(Path("report.json")))
        assert len(lines) == len(report["matrices"]) == len(gates)
        for k, path in enumerate(gates):
            out = tmp_path / f"alone{k}"
            assert run(["analyze", path, "--out", out, *self.GRID]) == 0
            assert capsys.readouterr().out.splitlines() == [lines[k]]
            alone = _outputs(out)
            assert json.loads(alone.pop(Path("report.json")))["matrices"] == [report["matrices"][k]]
            assert sorted(alone) == [Path(f"contours-g{k}.csv"), Path(f"portrait-g{k}.svg")]
            for name, data in alone.items():
                assert together[name] == data


class TestFailuresWriteNothing:
    def test_analyze_grid_usage_error(self, tmp_path, identity_csv, capsys):
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, "--out", out, "--nx", "1"]) == 2
        assert "at least 2 nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_second_input_not_square(self, tmp_path, identity_csv, capsys):
        wide = tmp_path / "wide.csv"
        wide.write_text("1,0,0\n0,1,0\n")
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, wide, "--out", out, "--nx", "11", "--ny", "11"]) == 3
        assert "square" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "rect.csv", "rect.csv", "--out", "o"],
            ["compare", "rect.csv", "rect.csv", "--out", "o", "--box", "-1", "1", "-1", "1"],
            ["stabilize", "rect.csv", "o.pspc"],
        ],
    )
    def test_non_square_input_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rect.csv").write_text("1,2,3\n4,5,6\n")
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("specto: input error:") and err.count("\n") == 1 and "square" in err
        assert [p.name for p in tmp_path.iterdir()] == ["rect.csv"]

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_overflowing_field(self, tmp_path, identity_csv, capsys, command):
        one, huge = tmp_path / "one.csv", tmp_path / "huge.csv"
        one.write_text("1\n")
        huge.write_text("-1.7e308\n")  # -1.7e308 - 1.7e308 overflows at the box's right edge
        out = tmp_path / "o"
        box = ["--box", "0", "1.7e308", "-1", "1", "--nx", "9", "--ny", "9"]
        assert run([command, one, huge, "--out", out, *box]) == 4
        assert "sigma_min overflowed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_bad_worker_count_exit_2(self, tmp_path, identity_csv, capsys, workers):
        out = tmp_path / "o"
        assert run(["analyze", identity_csv, "--out", out, "--nx", "5", "--ny", "5", "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("specto: usage error:") and "workers" in err and err.count("\n") == 1
        assert not out.exists()

    def test_worker_count_is_not_read_from_the_environment(self, tmp_path, identity_csv, monkeypatch):
        # --workers is the one spelling of the pool size; SPECTO_THREADS is an ordinary variable
        monkeypatch.setenv("SPECTO_THREADS", "0")
        assert pseudospectrum.resolve_workers() == (os.cpu_count() or 1)
        assert run(["analyze", identity_csv, "--out", tmp_path / "o", "--nx", "5", "--ny", "5"]) == 0

    def test_train_bad_batch(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("training started"))
        out = tmp_path / "t"
        assert run(["train", "--task", "adding", "--out", out, "--batch", "0"]) == 2
        assert "batch" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--mnist-images", "--mnist-labels", "--mnist-test-images", "--mnist-test-labels"])
    def test_train_mnist_flag_under_the_adding_task(self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.setattr(cli, "adding_splits", lambda *args, **kwargs: pytest.fail("data generated"))
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("training started"))
        out = tmp_path / "t"
        assert run(["train", "--task", "adding", "--out", out, flag, tmp_path / "nowhere.idx"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"specto: usage error: {flag} applies only to --task mnist\n"
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_train_missing_mnist_file(self, tmp_path, capsys):
        out = tmp_path / "t"
        argv = ["train", "--task", "mnist", "--out", out, "--mnist-images", tmp_path / "none.idx"]
        assert run([*argv, "--mnist-labels", tmp_path / "none2.idx"]) == 3
        assert not out.exists()

    def test_train_mnist_header_count_past_the_int64_range(self, tmp_path, capsys):
        # its dims multiply to 2**64, which an int64 product wraps to the 0 bytes the file has
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, np.zeros((0, 1, 1), dtype=np.uint8))
        ipath.write_bytes(ipath.read_bytes()[:4] + struct.pack(">3I", 2**31, 2**31, 4))
        write_idx_labels(lpath, np.zeros(0, dtype=np.uint8))
        out = tmp_path / "o"
        argv = ["train", "--task", "mnist", "--mnist-images", ipath, "--mnist-labels", lpath, "--out", out]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"specto: input error: {ipath}: payload length mismatch")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [3, 35])  # in the training split, in the evaluation split
    def test_train_mnist_label_outside_the_classes(self, tmp_path, capsys, bad):
        images, labels = synthetic_digits(40, seed=0)
        labels[bad] = 12
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, images)
        write_idx_labels(lpath, labels)
        out = tmp_path / "o"
        argv = ["train", "--task", "mnist", "--mnist-images", ipath, "--mnist-labels", lpath,
                "--train-size", "30", "--test-size", "10", "--epochs", "1", "--out", out]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"specto: input error: {lpath}: label 12 at offset {8 + bad} is not a digit class 0-9\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "w.csv", "--out", "F", "--nx", "5", "--ny", "5"],
            ["compare", "w.csv", "w.csv", "--out", "F", "--nx", "5", "--ny", "5"],
            ["train", "--task", "adding", "--out", "F", "--train-size", "8", "--test-size", "4",
             "--seq-len", "4", "--epochs", "1", "--hidden", "2"],
            ["analyze", "F/x", "--out", "o"],
            ["analyze", "w.csv", "--out", "F/sub", "--nx", "5", "--ny", "5"],
            ["stabilize", "w.csv", "F/x.pspc"],
        ],
    )
    def test_unusable_path_exit_3(self, tmp_path, capsys, monkeypatch, argv):
        # F is a regular file, so it can be neither an output directory nor a parent
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.csv").write_text("0.5,1\n0,0.25\n")
        (tmp_path / "F").write_text("a file\n")
        before = sorted(tmp_path.rglob("*"))
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("specto: input error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "F").read_text() == "a file\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "w.csv", "--out", "F"],
            ["analyze", "w.csv", "--out", "F/sub"],
            ["compare", "w.csv", "w.csv", "--out", "F"],
            ["compare", "w.csv", "w.csv", "--out", "F/sub"],
        ],
    )
    def test_unusable_out_fails_before_any_input_is_loaded(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "load_matrix_any", lambda *args: pytest.fail("input loaded"))
        monkeypatch.setattr(cli, "compute_fields", lambda *args, **kwargs: pytest.fail("fields computed"))
        (tmp_path / "w.csv").write_text("0.5,1\n0,0.25\n")
        (tmp_path / "F").write_text("a file\n")
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("specto: input error:") and captured.err.count("\n") == 1
        assert "'F'" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "w.csv"]
        assert (tmp_path / "F").read_text() == "a file\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "missing.csv", "--out", "o", "--workers", "0"],
            ["compare", "missing.csv", "missing.csv", "--out", "o", "--box", "1", "0", "0", "1"],
            ["analyze", "w.csv", "--workers", "0", "--out", "F"],
            ["stabilize", "missing.csv", "o.pspc", "-m", "0"],
        ],
        ids=["analyze-workers", "compare-box", "workers-before-out", "stabilize-m"],
    )
    def test_usage_flags_fail_before_out_and_any_input(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "load_matrix_any", lambda *args: pytest.fail("input loaded"))
        (tmp_path / "w.csv").write_text("0.5,1\n0,0.25\n")
        (tmp_path / "F").write_text("a file\n")
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("specto: usage error:") and captured.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "w.csv"]

    @pytest.mark.parametrize("data, offset", NOT_UTF8_CSVS, ids=NOT_UTF8_IDS)
    def test_csv_not_utf8_is_an_input_error(self, tmp_path, capsys, data, offset):
        src = tmp_path / "m.csv"
        src.write_bytes(data)
        out = tmp_path / "o"
        assert run(["analyze", src, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"specto: input error: {src}: not UTF-8 at offset {offset}\n"
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(20, 28, 0), (20, 0, 28)])  # no columns, no rows
    def test_train_mnist_images_without_pixels(self, tmp_path, capsys, shape):
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, np.zeros(shape, dtype=np.uint8))
        write_idx_labels(lpath, np.zeros(shape[0], dtype=np.uint8))
        out = tmp_path / "o"
        argv = ["train", "--task", "mnist", "--kind", "rnn", "--hidden", "2", "--epochs", "1",
                "--train-size", "10", "--test-size", "10", "--mnist-images", ipath, "--mnist-labels", lpath,
                "--out", out]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        size = f"{shape[1]}x{shape[2]}"
        assert captured.err == (
            f"specto: input error: {ipath}: images of {size} pixels: need at least one row and one column\n"
        )
        assert not out.exists()

    def test_train_mnist_count_mismatch_names_both_files(self, tmp_path, capsys):
        ipath, lpath = tmp_path / "i.idx", tmp_path / "l.idx"
        write_idx_images(ipath, np.zeros((2, 3, 3), dtype=np.uint8))
        write_idx_labels(lpath, np.zeros(4, dtype=np.uint8))
        out = tmp_path / "o"
        argv = ["train", "--task", "mnist", "--train-size", "1", "--test-size", "1",
                "--mnist-images", ipath, "--mnist-labels", lpath, "--out", out]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"specto: input error: image/label count mismatch: 2 images in {ipath}, 4 labels in {lpath}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # arrays past the 128 TiB address space: the allocation fails at once
            ["train", "--task", "adding", "--train-size", "20", "--test-size", "2",
             "--seq-len", "1000000000000000", "--out", "o"],
            ["analyze", "w.csv", "--nx", "5000000", "--ny", "5000000", "--out", "o"],
        ],
        ids=("train-seq-len", "analyze-grid"),
    )
    def test_size_past_memory_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.csv").write_text("0.5,1\n0,0.25\n")
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("specto: usage error: Unable to allocate") and captured.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.csv"]

    @pytest.mark.parametrize("out", ["F", "F/sub"])
    def test_train_unusable_out_fails_before_training(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text("a file\n")
        argv = ["train", "--task", "adding", "--out", out, "--train-size", "64", "--test-size", "8",
                "--seq-len", "5", "--epochs", "3", "--hidden", "2", "--snapshot-every", "0"]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("specto: input error:") and captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["F"]
        assert (tmp_path / "F").read_text() == "a file\n"


class TestTrain:
    def test_tiny_adding_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            ["train", "--task", "adding", "--kind", "gru", "--out", out,
             "--hidden", "6", "--epochs", "2", "--train-size", "120", "--test-size", "40",
             "--seq-len", "8", "--seed", "0"]
        )
        assert code == 0
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == (
            "epoch,loss,accuracy,update_rho,update_henrici,reset_rho,reset_henrici,"
            "candidate_rho,candidate_henrici"
        )
        assert len(history) == 3
        for gate in ("update", "reset", "candidate"):
            assert (out / f"weights-final-{gate}.pspc").exists()
            assert (out / f"weights-epoch001-{gate}.pspc").exists()
            assert (out / f"weights-epoch002-{gate}.pspc").exists()
        assert "final accuracy" in capsys.readouterr().out
        last = history[2].split(",")
        for epoch in (1, 2):
            text = (out / f"report-epoch{epoch:03d}.json").read_text()
            assert serialize_report(parse_report(text)) == text
        # the snapshot serializes the reports the training loop built
        rep = parse_report(text)
        assert [m.name for m in rep.matrices] == ["gru-update", "gru-reset", "gru-candidate"]
        assert [float(v) for v in last[3::2]] == [m.spectral_radius for m in rep.matrices]
        assert [float(v) for v in last[4::2]] == [m.henrici for m in rep.matrices]

    @pytest.mark.parametrize("flag", ["--train-size", "--test-size"])
    def test_empty_split_exit_2(self, tmp_path, capsys, flag):
        code = run(["train", "--task", "adding", "--out", tmp_path / "o", "--epochs", "1", flag, "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "sizes must be positive" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--clip", "-1"), ("--clip", "nan"), ("--clip", "inf"), ("--snapshot-every", "-1"), ("--lr", "inf"),
         ("--target-accuracy", "nan"), ("--target-accuracy", "1.5"), ("--memory-bias", "nan"),
         ("--memory-bias", "inf")],
    )
    def test_negative_setting_exit_2_before_training(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("training started"))
        out = tmp_path / "o"
        assert run(["train", "--task", "adding", "--out", out, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("specto: usage error:") and flag in err and err.count("\n") == 1
        assert not out.exists()

    def test_negative_memory_bias_in_exponent_notation(self, tmp_path, monkeypatch):
        seen, train = [], cli.train

        def capturing(cfg, *args, **kwargs):
            seen.append(cfg)
            return train(cfg, *args, **kwargs)

        monkeypatch.setattr(cli, "train", capturing)
        argv = ["train", "--task", "adding", "--out", tmp_path / "o", "--train-size", "8", "--test-size", "4",
                "--seq-len", "4", "--epochs", "1", "--hidden", "2", "--snapshot-every", "0",
                "--memory-bias", "-1e-1"]
        assert run(argv) == 0
        assert seen[0].memory_bias == -0.1

    def test_lr_zero_flat_history(self, tmp_path):
        out = tmp_path / "flat"
        run(
            ["train", "--task", "adding", "--out", out, "--hidden", "4", "--epochs", "3",
             "--train-size", "60", "--test-size", "20", "--seq-len", "6", "--lr", "0",
             "--snapshot-every", "0"]
        )
        rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
        losses = {row[1] for row in rows}
        assert len(losses) == 1  # identical loss text every epoch

    def test_stabilized_training_radius_capped(self, tmp_path):
        out = tmp_path / "stab"
        run(
            ["train", "--task", "adding", "--out", out, "--hidden", "5", "--epochs", "2",
             "--train-size", "60", "--test-size", "20", "--seq-len", "6",
             "--stabilize", "200", "--snapshot-every", "0"]
        )
        rows = [line.split(",") for line in (out / "history.csv").read_text().splitlines()[1:]]
        for row in rows:
            for rho in (float(row[3]), float(row[5]), float(row[7])):
                assert rho <= 1.0 + 1e-6

    def test_defaults_are_the_config_defaults(self, tmp_path, monkeypatch):
        seen = []

        def fake(cfg, *args, **kwargs):
            seen.append(cfg)
            raise StopIteration

        monkeypatch.setattr(cli, "train", fake)
        with pytest.raises(StopIteration):
            run(["train", "--task", "adding", "--out", tmp_path / "d"])
        assert seen == [TrainConfig()]

    def test_stabilize_zero_exit_2(self, tmp_path, capsys):
        code = run(["train", "--task", "adding", "--out", tmp_path / "o", "--stabilize", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("specto: usage error:") and err.count("\n") == 1

    def test_mnist_requires_paths(self, tmp_path):
        assert run(["train", "--task", "mnist", "--out", tmp_path / "o"]) == 2

    def test_mnist_missing_file_exit_3(self, tmp_path):
        assert (
            run(
                ["train", "--task", "mnist", "--out", tmp_path / "o",
                 "--mnist-images", tmp_path / "none.idx", "--mnist-labels", tmp_path / "none2.idx"]
            )
            == 3
        )

    @pytest.fixture
    def digits(self, tmp_path):
        """12 procedural 8x8 digits as an IDX image/label pair."""
        images, labels = synthetic_digits(12, seed=0, size=8)
        write_idx_images(tmp_path / "img.idx", images)
        write_idx_labels(tmp_path / "lbl.idx", labels)
        return tmp_path / "img.idx", tmp_path / "lbl.idx"

    def _train_mnist(self, tmp_path, digits, *sizes, test_pair=False):
        images, labels = digits
        pair = ["--mnist-test-images", images, "--mnist-test-labels", labels] if test_pair else []
        return run(
            ["train", "--task", "mnist", "--out", tmp_path / "o", "--hidden", "3", "--epochs", "1",
             "--snapshot-every", "0", "--mnist-images", images, "--mnist-labels", labels, *pair, *sizes]
        )

    @pytest.mark.parametrize(
        "sizes, test_pair",
        [
            (["--train-size", "12"], False),  # nothing left over for evaluation
            (["--train-size", "0", "--test-size", "12"], False),
            (["--train-size", "0"], True),
            (["--test-size", "0"], True),
        ],
    )
    def test_mnist_empty_split_exit_2(self, tmp_path, capsys, digits, sizes, test_pair):
        assert self._train_mnist(tmp_path, digits, *sizes, test_pair=test_pair) == 2
        err = capsys.readouterr().err
        assert err.startswith("specto: usage error:") and err.count("\n") == 1
        assert "size" in err

    @pytest.mark.parametrize("given", ("--mnist-test-images", "--mnist-test-labels"))
    def test_mnist_half_test_pair_exit_2(self, tmp_path, capsys, digits, given):
        images, labels = digits
        half = [given, images if given == "--mnist-test-images" else labels]
        code = run(
            ["train", "--task", "mnist", "--out", tmp_path / "o", "--hidden", "3", "--epochs", "1",
             "--mnist-images", images, "--mnist-labels", labels, *half]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("specto: usage error:") and "--mnist-test-labels" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("test_pair", [False, True])
    def test_mnist_splits_hold_only_the_images_they_use(self, tmp_path, monkeypatch, test_pair):
        images, labels = synthetic_digits(2000, seed=0)
        write_idx_images(tmp_path / "img.idx", images)
        write_idx_labels(tmp_path / "lbl.idx", labels)
        seen, train = [], cli.train

        def capturing(cfg, train_ds, eval_ds, **kwargs):
            seen.extend((train_ds, eval_ds))
            return train(cfg, train_ds, eval_ds, **kwargs)

        monkeypatch.setattr(cli, "train", capturing)
        digits = (tmp_path / "img.idx", tmp_path / "lbl.idx")
        assert self._train_mnist(tmp_path, digits, "--train-size", "100", "--test-size", "50", test_pair=test_pair) == 0
        assert [len(ds) for ds in seen] == [100, 50]
        for ds in seen:
            used = len(ds) * 28 * 28
            assert ds.inputs.flags.owndata and ds.inputs.nbytes <= 1.25 * used
            assert ds.targets.flags.owndata

    def test_mnist_leftover_evaluation_split(self, tmp_path, capsys, digits):
        assert self._train_mnist(tmp_path, digits, "--train-size", "8", "--test-size", "100") == 0
        assert "final accuracy" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_4(self, tmp_path, capsys):
        code = run(
            ["train", "--task", "adding", "--out", tmp_path / "o", "--hidden", "4",
             "--epochs", "3", "--train-size", "60", "--test-size", "20", "--seq-len", "6",
             "--lr", "1e200", "--clip", "0", "--snapshot-every", "0"]
        )
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("size, epochs", [("20", "1"), ("16", "2")])
    def test_divergence_writes_one_stderr_line(self, tmp_path, size, epochs):
        # numpy's overflow warnings must not precede the failure line, and a run that
        # fails before its first write leaves no output directory behind
        out = tmp_path / "t"
        argv = ["train", "--task", "adding", "--out", out, "--train-size", size, "--test-size", "5",
                "--seq-len", "5", "--epochs", epochs, "--hidden", "2", "--seed", "1", "--lr", "1e300", "--clip", "0",
                "--snapshot-every", "0"]
        proc = subprocess.run(
            [sys.executable, "-m", "specto.cli", *map(str, argv)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 4
        assert proc.stderr == f"specto: numerical failure: loss became inf in epoch {epochs}\n"
        assert not out.exists()


class TestFlagsAreConfigFields:
    """Each train and stabilize flag's destination is the name of the config field it sets."""

    @pytest.mark.parametrize(
        "argv, cls",
        [(["train", "--task", "adding", "--out", "o"], TrainConfig), (["stabilize", "a", "b"], StabilizerConfig)],
    )
    def test_every_config_field_is_a_flag_destination(self, argv, cls):
        flags = vars(cli.build_parser().parse_args(argv))
        assert [f.name for f in dataclasses.fields(cls) if f.name not in flags] == []
        # the flag defaults are the config defaults
        assert cls(**{f.name: flags[f.name] for f in dataclasses.fields(cls)}) == cls()

    def test_renamed_destinations_reach_the_config(self, tmp_path, monkeypatch):
        seen, train = [], cli.train

        def capturing(cfg, *args, **kwargs):
            seen.append(cfg)
            return train(cfg, *args, **kwargs)

        monkeypatch.setattr(cli, "train", capturing)
        argv = ["train", "--task", "adding", "--out", tmp_path / "o", "--train-size", "8", "--test-size", "4",
                "--seq-len", "4", "--epochs", "1", "--hidden", "2", "--snapshot-every", "0",
                "--lr", "0.3", "--clip", "0.5"]
        assert run(argv) == 0
        assert (seen[0].learning_rate, seen[0].grad_clip) == (0.3, 0.5)


class TestDeterminism:
    def test_train_then_analyze_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            run_dir = tmp_path / f"run-{tag}"
            ana_dir = tmp_path / f"ana-{tag}"
            assert run(
                ["train", "--task", "adding", "--kind", "gru", "--out", run_dir,
                 "--hidden", "5", "--epochs", "2", "--train-size", "80", "--test-size", "20",
                 "--seq-len", "6", "--seed", "7", "--snapshot-every", "0"]
            ) == 0
            gates = sorted(run_dir.glob("weights-final-*.pspc"))
            assert run(
                ["analyze", *gates, "--out", ana_dir, "--nx", "31", "--ny", "31", "--workers", "2"]
            ) == 0
            blob = {
                "report": (ana_dir / "report.json").read_bytes(),
                "history": (run_dir / "history.csv").read_bytes(),
                "svgs": sorted(p.name for p in ana_dir.glob("*.svg")),
                "svg_bytes": b"".join(p.read_bytes() for p in sorted(ana_dir.glob("*.svg"))),
            }
            blobs.append(blob)
        assert blobs[0] == blobs[1]


class TestFactorizationCounts:
    """Each matrix is Schur-factorized and SVD'd at most once per instance."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"schur": 0, "svd": 0, "eigvals": 0}
        schur, svd, eigvals = matrix.complex_schur, np.linalg.svd, np.linalg.eigvals

        def counting_schur(*args, **kwargs):
            calls["schur"] += 1
            return schur(*args, **kwargs)

        def counting_svd(a, *args, **kwargs):
            if np.ndim(a) == 2:  # the batched 3-D field kernel is not a factorization of W
                calls["svd"] += 1
            return svd(a, *args, **kwargs)

        def counting_eigvals(*args, **kwargs):
            calls["eigvals"] += 1
            return eigvals(*args, **kwargs)

        monkeypatch.setattr(matrix, "complex_schur", counting_schur)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        return calls

    @pytest.mark.parametrize("method", ["svd"])  # the batched SVD is the one field kernel
    def test_analyze_one_matrix(self, tmp_path, rng, calls, method):
        p = tmp_path / "w.csv"
        np.savetxt(p, rng.standard_normal((8, 8)), delimiter=",")
        argv = ["analyze", p, "--out", tmp_path / "o", "--nx", "11", "--ny", "11"]
        assert run(argv) == 0
        assert calls == {"schur": 1, "svd": 1, "eigvals": 0}

    def test_train_two_gru_epochs(self, tmp_path, calls):
        code = run(
            ["train", "--task", "adding", "--kind", "gru", "--out", tmp_path / "run",
             "--hidden", "4", "--epochs", "2", "--train-size", "32", "--test-size", "8",
             "--seq-len", "4", "--seed", "0"]
        )
        assert code == 0
        assert calls == {"schur": 6, "svd": 6, "eigvals": 0}


@st.composite
def _containers(draw):
    """A valid header followed by an arbitrary payload and footer, maybe truncated."""
    rows, cols, flags = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    count = rows * cols * (2 if flags & 1 else 1)
    floats = st.lists(st.floats(width=64), min_size=count, max_size=count)
    payload = draw(st.one_of(floats.map(lambda v: struct.pack(f"<{len(v)}d", *v)), st.binary(max_size=80)))
    name = st.text(max_size=8).map(lambda t: t.encode("utf-8"))
    footer = draw(st.one_of(st.just(b""), name.map(lambda b: struct.pack("<I", len(b)) + b), st.binary(max_size=8)))
    data = b"PSPC" + struct.pack("<HHII", 1, flags, rows, cols) + payload + footer
    return data[: draw(st.integers(0, len(data)))] if draw(st.booleans()) else data


_CSV_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="0123456789.,-+eEinfa \n", max_size=40),
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.floats(width=64), min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(lambda rows: "\n".join(",".join(repr(v) for v in row) for row in rows)),
)


@st.composite
def _idx_pairs(draw):
    """An IDX image/label pair with small dims, 0 included, its payloads maybe cut short or extended."""
    n, rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    n_labels = draw(st.one_of(st.just(n), st.integers(0, 6)))
    pixels = bytes(draw(st.lists(st.integers(0, 255), min_size=n * rows * cols, max_size=n * rows * cols)))
    digits = draw(st.lists(st.integers(0, 9), min_size=n_labels, max_size=n_labels))
    if digits and draw(st.booleans()):  # a label byte above 9
        digits[draw(st.integers(0, n_labels - 1))] = draw(st.integers(10, 255))

    def resized(data):  # as written, one byte short or one byte long
        return draw(st.sampled_from([data, data, data[:-1], data + b"\x00"]))

    images = resized(struct.pack(">4I", 0x803, n, rows, cols) + pixels)
    labels = resized(struct.pack(">2I", 0x801, n_labels) + bytes(digits))
    return images, labels, draw(st.integers(1, 3)), draw(st.integers(1, 2))


class TestFuzz:
    @settings(max_examples=50, deadline=None)
    @given(_idx_pairs())
    def test_train_mnist_any_idx_pair(self, case):
        images, labels, n_train, n_test = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err), redirect_stdout(io.StringIO()):
            ipath, lpath = Path(tmp) / "i.idx", Path(tmp) / "l.idx"
            ipath.write_bytes(images)
            lpath.write_bytes(labels)
            argv = ["train", "--task", "mnist", "--kind", "rnn", "--hidden", "2", "--epochs", "1",
                    "--snapshot-every", "0", "--train-size", n_train, "--test-size", n_test,
                    "--mnist-images", ipath, "--mnist-labels", lpath, "--out", Path(tmp) / "o"]
            code = run(argv)
        assert code in (0, 2, 3, 4)
        assert err.getvalue().count("\n") == (code != 0)  # one line per failure, no traceback


    @settings(max_examples=50, deadline=None)
    @given(
        st.one_of(
            _containers().map(lambda data: ("w.pspc", data)),
            _CSV_TEXT.map(lambda text: ("w.csv", text.encode("utf-8"))),
        )
    )
    def test_analyze_any_input(self, case):
        filename, data = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err), redirect_stdout(io.StringIO()):
            path = Path(tmp) / filename
            path.write_bytes(data)
            code = main(["analyze", str(path), "--out", str(Path(tmp) / "o"), "--nx", "5", "--ny", "5"])
        assert code in (0, 2, 3, 4)
        assert err.getvalue().count("\n") == (code != 0)  # one line per failure, no traceback
