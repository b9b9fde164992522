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
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .matrix import Matrix, eigenvalues, spectral_radius, two_norm
from .nonnormality import nonnormality_report
from .pseudospectrum import ContourSet, GridSpec, PseudospectrumField, kreiss_lower_bound

__all__ = [
    "MatrixReport",
    "AnalysisReport",
    "build_matrix_report",
    "serialize_report",
    "parse_report",
    "write_contours_csv",
    "portrait_svg",
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
    contours: ContourSet | None = None,
    stability_tol: float = DEFAULT_STABILITY_TOL,
) -> MatrixReport:
    """Metrics of ``w``; the eps levels and the Kreiss bound come from ``contours`` of ``pfield``."""
    if (pfield is None) != (contours is None):
        raise ValueError("build_matrix_report needs a field and its contours together, or neither")
    evs = eigenvalues(w)
    nn = nonnormality_report(w)
    rho = spectral_radius(w)
    kreiss = kreiss_lower_bound(pfield, contours.levels) if contours else None
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
        grid=pfield.grid if pfield else None,
        eps_levels=[float(e) for e in contours.levels] if contours else None,
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
        lev = fmt_float(level)
        for pid, poly in enumerate(group):
            if not np.isfinite(poly).all():
                raise ValueError("reports must not contain non-finite numbers")
            lines.extend(
                f"{lev},{pid},{re!r},{im!r}" for re, im in zip(poly.real.tolist(), poly.imag.tolist())
            )
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG spectral portraits
# ---------------------------------------------------------------------------

_PORTRAIT_SIZE, _PORTRAIT_MARGIN, _PORTRAIT_GAP = 560, 80, 40  # pixels: plot square, border, between plots
_LEGEND_GAP, _LEGEND_GLYPH = 8, 6.6  # pixels: legend to the last plot and to the edge; an 11 px monospace glyph
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


def _legend_elements(labels, x: float, y: float):
    parts = ['<g class="legend">']
    for li, label in enumerate(labels):
        color = _PALETTE[li % len(_PALETTE)]
        yy = y + 18 * li
        parts.append(
            f'<rect x="{_px(x)}" y="{_px(yy)}" width="14" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_px(x + 20)}" y="{_px(yy + 9)}" font-size="11" '
            f'font-family="monospace">{label}</text>'
        )
    parts.append("</g>")
    return parts


def portrait_svg(panels, grid: GridSpec) -> str:
    """Spectral portraits of ``(name, eigenvalues, contours or None)`` panels, side by side on one grid.

    Each panel has its title, unit circle, eigenvalues and eps contours; the
    legend of the first panel's levels stands right of the last panel, in a
    right margin wide enough for its longest label.
    """
    if not panels:
        raise ValueError("a portrait needs at least one panel")
    size, margin, gap = _PORTRAIT_SIZE, _PORTRAIT_MARGIN, _PORTRAIT_GAP
    levels = [] if panels[0][2] is None else panels[0][2].levels
    legend = [f"eps = {format(level, '.4g')}" for level in levels]
    text = _LEGEND_GLYPH * max(map(len, legend), default=0)  # the longest label, estimated
    right = max(margin, math.ceil(_LEGEND_GAP + 20 + text + _LEGEND_GAP))  # swatch, text, gap
    width = len(panels) * (size + gap) - gap + margin + right
    height = size + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for k, (name, evs, contours) in enumerate(panels):
        x0 = margin + k * (size + gap)
        parts.append(
            f'<text class="title" x="{x0}" y="{margin - 14}" font-size="14" '
            f'font-family="monospace">{_xml_escape(name)}</text>'
        )
        frame = _Frame(grid, x0, margin, size, size)
        parts += _panel_elements(frame, evs, contours, unit_circle_id="unit-circle" if k == 0 else None)
    if panels[0][2] is not None:
        parts += _legend_elements(legend, x0 + size + _LEGEND_GAP, margin)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
