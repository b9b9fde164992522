"""Spans around the calls into specto's layers, recorded from outside the package.

A :class:`Tracer` swaps each public function for a timing wrapper at the
place where its caller's module binds it (``specto.cli.compute_field``,
``specto.rnn.cells.forward_batch``, ``specto.report.eigenvalues``...). A span
records its name, start, end, parent span and operation id; spans stay in
memory until the run writes them out. All wrapped calls happen on the main
thread: ``compute_field``'s worker threads call no wrapped function.

A layer's self time is the duration of its spans minus the time covered by
their child spans, so the self times of one operation add up to its wall
time. Time spent in an unwrapped helper lands in its caller's self time.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time

# (caller module, names it binds). A name the module no longer binds is skipped.
BINDINGS = (
    (
        "specto.cli",
        (
            "load_matrix_any",
            "read_matrix_file",
            "write_matrix_file",
            "auto_grid",
            "compute_field",
            "extract_contours",
            "build_matrix_report",
            "portrait_svg",
            "compare_svg",
            "serialize_report",
            "write_contours_csv",
            "_emit",
            "adding_splits",
            "train",
            "stabilize",
        ),
    ),
    ("specto.report", ("eigenvalues", "two_norm", "nonnormality_report", "kreiss_lower_bound")),
    ("specto.pseudospectrum", ("eigenvalues", "schur")),
    ("specto.nonnormality", ("schur",)),
    ("specto.rnn.training", ("build_spectral_report", "stabilize", "accuracy", "batch_loss_and_grads")),
    ("specto.rnn.cells", ("forward_batch",)),
)

# Span name -> the per-layer metric its self time is charged to.
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "cli.on_epoch": "cli.self_s",
    "pseudospectrum.compute_field": "pseudospectrum.field_s",
    "pseudospectrum.auto_grid": "pseudospectrum.auto_grid_s",
    "pseudospectrum.extract_contours": "pseudospectrum.contours_s",
    "pseudospectrum.kreiss_lower_bound": "pseudospectrum.kreiss_s",
    "matrix.eigenvalues": "matrix.factor_s",
    "matrix.schur": "matrix.factor_s",
    "matrix.two_norm": "matrix.factor_s",
    "nonnormality.nonnormality_report": "nonnormality.report_s",
    "stabilizer.stabilize": "stabilizer.stabilize_s",
    "report.build_matrix_report": "report.build_s",
    "report.build_spectral_report": "report.build_s",
    "report.serialize_report": "report.serialize_s",
    "report._emit": "report.serialize_s",
    "report.portrait_svg": "report.svg_s",
    "report.compare_svg": "report.svg_s",
    "report.write_contours_csv": "report.csv_s",
    "containers.load_matrix_any": "containers.load_s",
    "containers.read_matrix_file": "containers.load_s",
    "containers.write_matrix_file": "containers.write_s",
    "rnn.datasets.adding_splits": "rnn.datasets.generate_s",
    "rnn.cells.forward_batch": "rnn.cells.eval_s",  # forward_s when under batch_loss_and_grads
    "rnn.cells.batch_loss_and_grads": "rnn.cells.backward_s",
    "rnn.cells.accuracy": "rnn.cells.eval_s",
    "rnn.training.train": "rnn.training.update_s",
}

SELF_TIME_METRICS = tuple(dict.fromkeys(SELF_METRIC.values())) + ("rnn.cells.forward_s",)

# Counts that must repeat exactly between rounds and runs on the same seed.
REPEATING_COUNTS = (
    "pseudospectrum.field_nodes",
    "pseudospectrum.contour_vertices",
    "matrix.factorizations_per_matrix",
    "rnn.cells.batches",
    "stabilizer.calls",
)

_FACTORIZATIONS = {"matrix.eigenvalues": "eigenvalues_calls", "matrix.schur": "schur_calls", "matrix.two_norm": "svd_calls"}


def _matrix_key(m) -> str:
    return hashlib.blake2b(m.array.tobytes(), digest_size=16).hexdigest()


def _span_info(name: str, args, result, clip):
    """Counts taken at the layer boundary; None when the span has none."""
    if name == "pseudospectrum.compute_field":
        w, grid = args[0], args[1]
        return {"nodes": grid.nx * grid.ny, "n": w.rows}
    if name == "pseudospectrum.extract_contours":
        return {"vertices": sum(len(p) for group in result.polylines for p in group)}
    if name.startswith("matrix."):
        return {"matrix": _matrix_key(args[0])}
    if name in ("report.serialize_report", "report.portrait_svg", "report.compare_svg", "report._emit"):
        return {"bytes": len(result.encode("utf-8"))}
    if name == "report.write_contours_csv":
        return {"bytes": os.path.getsize(args[0])}
    if name == "rnn.cells.batch_loss_and_grads":
        grads = result[1]
        norm = sum(float((g * g).sum()) for g in grads.values()) ** 0.5
        return {"clipped": clip is not None and norm > clip}
    return None


class Tracer:
    """Records spans around specto's layer boundaries while installed."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, op id, info dict or None].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._clip: float | None = None
        self.op = -1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, names in BINDINGS:
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                layer = fn.__module__.removeprefix("specto.")
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{layer}.{fn.__name__}"))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if name == "rnn.training.train":
                tracer._clip = args[0].grad_clip
                if kwargs.get("on_epoch") is not None:
                    kwargs["on_epoch"] = tracer._wrap(kwargs["on_epoch"], "cli.on_epoch")
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.spans[idx][5] = _span_info(name, args, result, tracer._clip)
            return result

        return traced

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_root(self, op: int, fn, *args):
        """Run ``fn(*args)`` as the root span "cli.main" of operation ``op``."""
        self.op = op
        idx = self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self, ops) -> dict[str, float]:
        """Per-layer self times and counts summed over the operations ``ops``."""
        ops = set(ops)
        chosen = [i for i, s in enumerate(self.spans) if s[4] in ops]
        child_time: dict[int, float] = {}
        for i in chosen:
            parent = self.spans[i][3]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + self.spans[i][2] - self.spans[i][1]
        out = {m: 0.0 for m in SELF_TIME_METRICS}
        out["rnn.training.spectral_report_s"] = 0.0
        counts = dict.fromkeys(
            (
                "pseudospectrum.field_nodes",
                "pseudospectrum.field_bytes_computed",
                "pseudospectrum.contour_vertices",
                "matrix.eigenvalues_calls",
                "matrix.schur_calls",
                "matrix.svd_calls",
                "stabilizer.calls",
                "report.bytes_written",
                "containers.files",
                "rnn.cells.batches",
            ),
            0,
        )
        matrices: set[str] = set()
        clipped = 0
        wall = 0.0
        for i in chosen:
            name, start, end, parent, _, info = self.spans[i]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            duration = end - start
            metric = SELF_METRIC[name]
            if name == "rnn.cells.forward_batch" and parent_name == "rnn.cells.batch_loss_and_grads":
                metric = "rnn.cells.forward_s"
            out[metric] += duration - child_time.get(i, 0.0)
            if parent < 0:
                wall += duration
            if name == "report.build_spectral_report" and parent_name == "rnn.training.train":
                out["rnn.training.spectral_report_s"] += duration
            if name == "pseudospectrum.compute_field":
                counts["pseudospectrum.field_nodes"] += info["nodes"]
                counts["pseudospectrum.field_bytes_computed"] += info["nodes"] * info["n"] ** 2 * 16
            elif name == "pseudospectrum.extract_contours":
                counts["pseudospectrum.contour_vertices"] += info["vertices"]
            elif name in _FACTORIZATIONS:
                counts["matrix." + _FACTORIZATIONS[name]] += 1
                matrices.add(info["matrix"])
            elif name == "stabilizer.stabilize":
                counts["stabilizer.calls"] += 1
            elif info is not None and "bytes" in info:
                counts["report.bytes_written"] += info["bytes"]
            elif name.startswith("containers."):
                counts["containers.files"] += 1
            elif name == "rnn.cells.batch_loss_and_grads":
                counts["rnn.cells.batches"] += 1
                clipped += info["clipped"]
        out.update(counts)
        factorizations = counts["matrix.eigenvalues_calls"] + counts["matrix.schur_calls"] + counts["matrix.svd_calls"]
        out["matrix.factorizations_per_matrix"] = factorizations / len(matrices) if matrices else 0.0
        nodes = counts["pseudospectrum.field_nodes"]
        out["pseudospectrum.field_ms_per_node"] = 1e3 * out["pseudospectrum.field_s"] / nodes if nodes else 0.0
        batches = counts["rnn.cells.batches"]
        out["rnn.training.clipped_ratio"] = clipped / batches if batches else 0.0
        out["trace.op_s"] = wall
        out["trace.layer_share"] = 1.0 - out["cli.self_s"] / wall if wall > 0 else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, info in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op, "info": info}) + "\n")
