import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import random_matrix

from specto import (
    AnalysisReport,
    ContourSet,
    GridSpec,
    Matrix,
    auto_grid,
    build_matrix_report,
    compare_svg,
    compute_field,
    extract_contours,
    parse_report,
    portrait_svg,
    serialize_report,
    write_contours_csv,
)
from specto.report import fmt_float

AWKWARD_FLOATS = [np.pi, 1 / 3, 0.1, 1e-300, 1.7976931348623157e308, -0.0, 2**53 + 1.0]


def analysis_fixture(rng, with_field=True):
    w = random_matrix(rng, 4, complex_entries=False)
    eps = [0.01, 0.1, 0.5]
    if with_field:
        grid = auto_grid(w, pad=0.5, nx=31, ny=31)
        field = compute_field(w, grid, workers=1)
        contours = extract_contours(field, eps)
        m = build_matrix_report("w", w, field, contours)
    else:
        m = build_matrix_report("w", w)
    return AnalysisReport(version="0.1.0", config={"eps_levels": eps, "nx": 31}, matrices=[m])


class TestRoundTrip:
    def test_parse_serialize_identity(self, rng):
        rep = analysis_fixture(rng)
        text = serialize_report(rep)
        back = parse_report(text)
        assert back == rep
        assert serialize_report(back) == text

    def test_without_field_sections(self, rng):
        rep = analysis_fixture(rng, with_field=False)
        back = parse_report(serialize_report(rep))
        assert back == rep
        assert back.matrices[0].grid is None
        assert back.matrices[0].kreiss_lower_bound is None

    def test_awkward_floats_round_trip(self):
        m = build_matrix_report("x", Matrix(np.eye(2)))
        for v in AWKWARD_FLOATS:
            m.henrici = float(v)
            rep = AnalysisReport(version="0", config={}, matrices=[m])
            back = parse_report(serialize_report(rep))
            assert back.matrices[0].henrici == float(v)

    def test_negative_zero_and_integral_floats_round_trip_as_text(self):
        m = build_matrix_report("x", Matrix(np.eye(2)))
        m.henrici = -0.0
        m.schur_departure = 1.0
        m.eigenvalues = [[1.0, -0.0], [-2.0, 0.0]]
        m.kreiss_lower_bound = 3.0
        text = serialize_report(AnalysisReport(version="0", config={"pad": -0.0}, matrices=[m]))
        assert '"henrici": -0.0,' in text and '"schur_departure": 1.0,' in text
        back = parse_report(text)
        assert serialize_report(back) == text
        got = back.matrices[0]
        assert np.signbit(got.henrici) and np.signbit(got.eigenvalues[0][1])
        assert type(got.schur_departure) is float and type(got.kreiss_lower_bound) is float
        assert all(type(v) is float for pair in got.eigenvalues for v in pair)
        assert type(got.rows) is int

    def test_keys_are_the_dataclass_fields(self, rng):
        import dataclasses
        import json

        from specto import MatrixReport

        doc = json.loads(serialize_report(analysis_fixture(rng)))
        assert list(doc) == ["toolkit", "version", "config", "matrices"]
        assert list(doc["matrices"][0]) == [f.name for f in dataclasses.fields(MatrixReport)]
        assert list(doc["matrices"][0]["grid"]) == ["re_min", "re_max", "im_min", "im_max", "nx", "ny"]

    def test_non_finite_rejected(self):
        m = build_matrix_report("x", Matrix(np.eye(2)))
        m.henrici = np.inf
        with pytest.raises(ValueError, match="Out of range float values"):
            serialize_report(AnalysisReport(version="0", config={}, matrices=[m]))

    def test_serialization_deterministic(self, rng):
        rep = analysis_fixture(rng)
        assert serialize_report(rep) == serialize_report(rep)


class TestSpectralReport:
    def test_stability_verdict(self):
        rep = build_matrix_report("s", Matrix(np.diag([0.5, -0.9])))
        assert rep.stable
        rep2 = build_matrix_report("u", Matrix(np.diag([1.5])))
        assert not rep2.stable

    def test_kreiss_requires_field(self, rng):
        rep = build_matrix_report("k", random_matrix(rng, 3))
        assert rep.kreiss_lower_bound is None

    def test_levels_come_from_the_contours(self, rng):
        w = random_matrix(rng, 3)
        field = compute_field(w, auto_grid(w, nx=21, ny=21), workers=1)
        contours = extract_contours(field, [0.1, 0.3])
        rep = build_matrix_report("k", w, field, contours)
        assert rep.eps_levels == [0.1, 0.3] and len(rep.contour_counts) == 2
        with pytest.raises(ValueError, match="together"):
            build_matrix_report("k", w, field)
        with pytest.raises(ValueError, match="together"):
            build_matrix_report("k", w, contours=contours)

    def test_henrici_matches_module(self, rng):
        from specto import henrici_number

        w = random_matrix(rng, 5)
        rep = build_matrix_report("h", w)
        assert rep.henrici == pytest.approx(henrici_number(w), rel=1e-12)


class TestContourCsv:
    def test_structure(self, tmp_path, rng):
        w = Matrix(np.eye(2))
        field = compute_field(w, GridSpec(-0.5, 2.5, -1.5, 1.5, 61, 61), workers=1)
        contours = extract_contours(field, [0.2, 0.4])
        path = tmp_path / "c.csv"
        write_contours_csv(path, contours)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "level,polyline_id,re,im"
        total_vertices = sum(len(p) for group in contours.polylines for p in group)
        assert len(lines) == 1 + total_vertices
        level, pid, re, im = lines[1].split(",")
        assert float(level) == 0.2
        assert pid == "0"
        # vertices sit on the 0.2-circle around 1 up to interpolation error
        assert abs(abs(complex(float(re), float(im)) - 1.0) - 0.2) < 0.1

    def test_bytes_match_the_per_vertex_formatter(self, tmp_path, rng):
        awkward = np.array([complex(-0.0, 1e-09), complex(5e-324, -0.0), complex(2.2250738585072014e-308, 1e-300)])
        contours = ContourSet(
            levels=(1e-09, 0.1, 1.5),
            polylines=(
                (awkward, rng.standard_normal(7) + 1j * rng.standard_normal(7)),
                (),
                (np.r_[awkward, awkward[:1]] * 3.0,),
            ),
        )
        path = tmp_path / "c.csv"
        write_contours_csv(path, contours)
        want = ["level,polyline_id,re,im"] + [
            f"{fmt_float(level)},{pid},{fmt_float(z.real)},{fmt_float(z.imag)}"
            for level, group in zip(contours.levels, contours.polylines)
            for pid, poly in enumerate(group)
            for z in poly
        ]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
        assert "-0.0,1e-09" in path.read_text() and "5e-324" in path.read_text()

    def test_nan_vertex_rejected(self, tmp_path):
        contours = ContourSet(levels=(0.1,), polylines=((np.array([0.5 + 0j, complex(np.nan, 0.0)]),),))
        with pytest.raises(ValueError, match="non-finite"):
            write_contours_csv(tmp_path / "c.csv", contours)


class TestSvg:
    def _portrait(self, rng):
        w = random_matrix(rng, 3, complex_entries=False)
        grid = auto_grid(w, pad=0.5, nx=41, ny=41)
        field = compute_field(w, grid, workers=1)
        eps = [0.05, 0.2, 0.6]
        contours = extract_contours(field, eps)
        svg = portrait_svg("test-mat", field.eigenvalues, grid, contours)
        return svg, field, contours

    def test_well_formed_and_structured(self, rng):
        svg, field, contours = self._portrait(rng)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        paths = root.findall(f".//{ns}path")
        n_polys = sum(len(g) for g in contours.polylines)
        assert len(paths) == n_polys
        circles = root.findall(f".//{ns}ellipse")
        assert len([e for e in circles if e.get("id") == "unit-circle"]) == 1
        eig_marks = [c for c in root.findall(f".//{ns}circle") if c.get("class") == "eigenvalue"]
        assert len(eig_marks) == len(field.eigenvalues)
        legend_texts = [t for t in root.findall(f".//{ns}text") if (t.text or "").startswith("eps")]
        assert len(legend_texts) == len(contours.levels)

    def test_deterministic(self, rng):
        w = random_matrix(rng, 3)
        grid = auto_grid(w, nx=21, ny=21)
        field = compute_field(w, grid, workers=1)
        contours = extract_contours(field, [0.3])
        a = portrait_svg("m", field.eigenvalues, grid, contours)
        b = portrait_svg("m", field.eigenvalues, grid, contours)
        assert a == b

    def test_name_escaped(self):
        grid = GridSpec(-2, 2, -2, 2, 5, 5)
        svg = portrait_svg("a<b&c", np.array([0.5 + 0j]), grid, None)
        ET.fromstring(svg)  # must stay well-formed

    def test_compare_layout(self, rng):
        w = random_matrix(rng, 3, complex_entries=False)
        grid = auto_grid(w, nx=21, ny=21)
        field = compute_field(w, grid, workers=1)
        contours = extract_contours(field, [0.3])
        svg = compare_svg(
            ("before", field.eigenvalues, contours),
            ("after", field.eigenvalues, contours),
            grid,
        )
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}ellipse")) == 2  # one unit circle per panel
        titles = [t.text for t in root.findall(f".//{ns}text") if t.get("class") == "title"]
        assert titles == ["before", "after"]
