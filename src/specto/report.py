"""Report bundles and their emitters: JSON metrics, contour CSV, SVG portraits.

Every float is written as its shortest round-tripping text (``repr``, which
is also what ``json`` writes), so parse(serialize(report)) compares equal
and serialize(parse(text)) reproduces the text. Both follow the dataclass
fields, so the report keys are exactly the field names, in field order.
Output text is fully determined by its inputs -- no timestamps, no
filesystem paths -- so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .matrix import Matrix, eigenvalues, two_norm
from .nonnormality import nonnormality_report
from .pseudospectrum import ContourSet, GridSpec, PseudospectrumField, kreiss_lower_bound

__all__ = [
    "MatrixReport",
    "AnalysisReport",
    "build_matrix_report",
    "serialize_report",
    "parse_report",
    "emit",
    "fmt_float",
    "write_contours_csv",
    "portrait_svg",
    "compare_svg",
]

TOOLKIT_NAME = "specto"
DEFAULT_STABILITY_TOL = 1e-9


@dataclass
class MatrixReport:
    """Per-matrix metrics; the field-dependent entries are None without a field."""

    name: str
    rows: int
    cols: int
    eigenvalues: list[list[float]]  # [re, im] pairs
    spectral_radius: float
    spectral_norm: float
    henrici: float
    schur_departure: float
    stable: bool
    stability_tol: float
    kreiss_lower_bound: float | None = None
    grid: GridSpec | None = None
    eps_levels: list[float] | None = None
    contour_counts: list[int] | None = None


@dataclass(kw_only=True)  # keyword-only so the defaulted toolkit can lead the keys
class AnalysisReport:
    toolkit: str = TOOLKIT_NAME
    version: str
    config: dict = field(default_factory=dict)
    matrices: list[MatrixReport] = field(default_factory=list)


def build_matrix_report(
    name: str,
    w: Matrix,
    pfield: PseudospectrumField | None = None,
    eps_list=None,
    contours: ContourSet | None = None,
    stability_tol: float = DEFAULT_STABILITY_TOL,
) -> MatrixReport:
    evs = eigenvalues(w)
    nn = nonnormality_report(w)
    rho = float(np.abs(evs).max())
    kreiss = None
    if pfield is not None and eps_list is not None:
        kreiss = kreiss_lower_bound(pfield, eps_list)
    return MatrixReport(
        name=name,
        rows=w.rows,
        cols=w.cols,
        eigenvalues=[[float(z.real), float(z.imag)] for z in evs],
        spectral_radius=rho,
        spectral_norm=two_norm(w),
        henrici=nn.henrici,
        schur_departure=nn.schur_departure,
        stable=rho <= 1.0 + stability_tol,
        stability_tol=stability_tol,
        kreiss_lower_bound=kreiss,
        grid=pfield.grid if pfield is not None else None,
        eps_levels=[float(e) for e in eps_list] if eps_list is not None else None,
        contour_counts=[len(group) for group in contours.polylines] if contours else None,
    )


# ---------------------------------------------------------------------------
# JSON and CSV text: shortest round-tripping floats
# ---------------------------------------------------------------------------


def fmt_float(x: float) -> str:
    """Shortest text that reads back as exactly this double."""
    if not np.isfinite(x):
        raise ValueError("reports must not contain non-finite numbers")
    return repr(float(x))


def emit(obj) -> str:
    """Deterministic JSON text of nested dicts/lists/scalars; rejects NaN and Inf."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def serialize_report(report: AnalysisReport) -> str:
    return emit(asdict(report))


def parse_report(text: str) -> AnalysisReport:
    doc = json.loads(text)
    for m in doc["matrices"]:
        if m["grid"] is not None:
            m["grid"] = GridSpec(**m["grid"])
    doc["matrices"] = [MatrixReport(**m) for m in doc["matrices"]]
    return AnalysisReport(**doc)


def write_contours_csv(path, contours: ContourSet) -> None:
    """Rows level,polyline_id,re,im; vertices in traversal order."""
    lines = ["level,polyline_id,re,im"]
    for level, group in zip(contours.levels, contours.polylines):
        for pid, poly in enumerate(group):
            for z in poly:
                lines.append(
                    f"{fmt_float(level)},{pid},{fmt_float(z.real)},{fmt_float(z.imag)}"
                )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG spectral portraits
# ---------------------------------------------------------------------------

_PALETTE = ("#440154", "#414487", "#2a788e", "#22a884", "#7ad151", "#fde725")
_EIG_COLOR = "#d62728"


class _Frame:
    """Affine map from the complex plane onto a pixel rectangle (y flipped)."""

    def __init__(self, grid: GridSpec, x0: float, y0: float, w: float, h: float):
        self.grid = grid
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.sx = w / (grid.re_max - grid.re_min)
        self.sy = h / (grid.im_max - grid.im_min)

    def x(self, re: float) -> float:
        return self.x0 + (re - self.grid.re_min) * self.sx

    def y(self, im: float) -> float:
        return self.y0 + (self.grid.im_max - im) * self.sy


def _px(v: float) -> str:
    return format(v, ".3f")


def _panel_elements(frame: _Frame, evs, contours: ContourSet | None, unit_circle_id: str | None):
    parts = []
    g = frame.grid
    if g.re_min < 0 < g.re_max:
        parts.append(
            f'<line class="axis" x1="{_px(frame.x(0))}" y1="{_px(frame.y(g.im_min))}" '
            f'x2="{_px(frame.x(0))}" y2="{_px(frame.y(g.im_max))}" stroke="#cccccc" stroke-width="1"/>'
        )
    if g.im_min < 0 < g.im_max:
        parts.append(
            f'<line class="axis" x1="{_px(frame.x(g.re_min))}" y1="{_px(frame.y(0))}" '
            f'x2="{_px(frame.x(g.re_max))}" y2="{_px(frame.y(0))}" stroke="#cccccc" stroke-width="1"/>'
        )
    ident = f' id="{unit_circle_id}"' if unit_circle_id else ""
    parts.append(
        f'<ellipse{ident} class="unit-circle" cx="{_px(frame.x(0))}" cy="{_px(frame.y(0))}" '
        f'rx="{_px(frame.sx)}" ry="{_px(frame.sy)}" fill="none" stroke="#555555" '
        'stroke-width="1.2" stroke-dasharray="5,4"/>'
    )
    if contours is not None:
        for li, group in enumerate(contours.polylines):
            color = _PALETTE[li % len(_PALETTE)]
            for poly in group:
                coords = " L ".join(f"{_px(frame.x(z.real))},{_px(frame.y(z.imag))}" for z in poly)
                parts.append(
                    f'<path class="contour" fill="none" stroke="{color}" '
                    f'stroke-width="1.4" d="M {coords}"/>'
                )
    for z in evs:
        parts.append(
            f'<circle class="eigenvalue" cx="{_px(frame.x(z.real))}" cy="{_px(frame.y(z.imag))}" '
            f'r="2.6" fill="{_EIG_COLOR}"/>'
        )
    return parts


def _legend_elements(levels, x: float, y: float):
    parts = ['<g class="legend">']
    for li, level in enumerate(levels):
        color = _PALETTE[li % len(_PALETTE)]
        yy = y + 18 * li
        parts.append(
            f'<rect x="{_px(x)}" y="{_px(yy)}" width="14" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_px(x + 20)}" y="{_px(yy + 9)}" font-size="11" '
            f'font-family="monospace">eps = {format(level, ".4g")}</text>'
        )
    parts.append("</g>")
    return parts


def portrait_svg(
    name: str,
    evs,
    grid: GridSpec,
    contours: ContourSet | None,
    size: int = 560,
    margin: int = 80,
) -> str:
    """Spectral portrait: unit circle, eigenvalues, eps contours, legend."""
    width = size + 2 * margin
    height = size + 2 * margin
    frame = _Frame(grid, margin, margin, size, size)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text class="title" x="{margin}" y="{margin - 14}" font-size="14" '
        f'font-family="monospace">{_xml_escape(name)}</text>',
    ]
    parts += _panel_elements(frame, evs, contours, unit_circle_id="unit-circle")
    if contours is not None:
        parts += _legend_elements(contours.levels, margin + size + 8, margin)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def compare_svg(
    left: tuple[str, np.ndarray, ContourSet | None],
    right: tuple[str, np.ndarray, ContourSet | None],
    grid: GridSpec,
    size: int = 420,
    margin: int = 70,
) -> str:
    """Two portraits over a shared grid, side by side with shared axes."""
    gap = 40
    width = 2 * size + 2 * margin + gap
    height = size + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for k, (name, evs, contours) in enumerate((left, right)):
        x0 = margin + k * (size + gap)
        frame = _Frame(grid, x0, margin, size, size)
        parts.append(
            f'<text class="title" x="{x0}" y="{margin - 12}" font-size="13" '
            f'font-family="monospace">{_xml_escape(name)}</text>'
        )
        parts += _panel_elements(frame, evs, contours, unit_circle_id=None)
    levels = left[2].levels if left[2] is not None else None
    if levels:
        parts += _legend_elements(levels, margin, margin + size + 16)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
