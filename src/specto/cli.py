"""Command-line pipeline: analyze, train, stabilize, compare.

Exit codes: 0 success, 2 usage error, 3 input error, 4 numerical
failure. ``analyze`` and ``compare`` compute the fields of all their
matrices at once, on one pool of SVD workers per command; --workers sizes
that pool (default: machine parallelism), and a count below 1 is a usage
error. The pool is the only thread started, so --workers 1 runs one SVD
thread beside the main thread, which computes every bracket and raises
the first error it meets as it takes the matrices in turn. Each command
makes its output directory at its first write: ``analyze`` and
``compare`` once every field and report is built, so a failing one writes
nothing, and ``train`` with its first gate snapshot (its final gates
under --snapshot-every 0), so a run that fails before then writes nothing
either. ``analyze`` and ``compare`` check in one order: the usage flags
(--eps, --stability-tol, --workers, --box), then that --out is a directory
or can become one, then read each input file once; the automatic grid's
--pad, --nx and --ny are checked when that grid is built, as it needs the
spectra. ``train`` rejects an --mnist-* flag under --task adding before it
generates any data, and checks --out before its first epoch. Report and
SVG outputs contain no timestamps or filesystem paths, and every command
runs with numpy's OpenBLAS, which computes the SVDs and the Schur forms,
at one thread (scipy's too where the Schur form falls back to scipy,
``_blas``), so identical flags and seeds reproduce identical bytes
whatever the BLAS thread settings.
--timing prints to stderr whether that pin took and, for each matrix, the
seconds from the start of the shared field phase to the end of that
matrix's report, and its evaluated grid nodes, in one format for every
worker count, and leaves the outputs alone. An input error is a malformed
matrix file, a non-square one included (``containers`` rejects it), or a
path that cannot be read or written; a size past memory, such as a huge
--seq-len or grid, is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import math
import os
import re
import sys
import time
from pathlib import Path

from . import __version__
from ._blas import one_thread
from .containers import load_matrix_any, write_matrix_file
from .errors import FormatError, NumericalError
from .matrix import Matrix, spectral_radius
from .pseudospectrum import (
    DEFAULT_GRID_NODES,
    DEFAULT_GRID_PAD,
    GridSpec,
    auto_grid,
    check_levels,
    compute_fields,
    extract_contours,
    resolve_workers,
)
from .report import (
    AnalysisReport,
    DEFAULT_STABILITY_TOL,
    build_matrix_report,
    emit,
    fmt_float,
    portrait_svg,
    serialize_report,
    write_contours_csv,
)
from .rnn import KINDS, TASKS, TrainConfig, adding_splits, mnist_splits, train
from .stabilizer import StabilizerConfig, stabilize

DEFAULT_EPS_LEVELS = tuple(10.0 ** (-3 + 0.5 * k) for k in range(6))

_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][+-]?{_DIGITS})?|(?i:inf|infinity|nan))$"
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subparsers, that read a negative number in any ``float`` notation as a value.

    argparse on Python 3.10 and 3.11 takes only -12 and -1.5 for negative
    numbers, and reads a token such as -1e-3 or -inf as an option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _parse_eps(text: str | None):
    if text is None:
        return DEFAULT_EPS_LEVELS
    try:
        eps = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--eps expects comma-separated floats, got {text!r}") from None
    return check_levels(eps)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name) or "matrix"


def _unique_names(names):
    out: list[str] = []
    for name in names:
        base = unique = _safe_name(name)
        k = 1
        while unique in out:  # a suffixed name may be another input's own name
            k += 1
            unique = f"{base}-{k}"
        out.append(unique)
    return out


def _grid_flags(sub):
    sub.add_argument("--nx", type=int, default=DEFAULT_GRID_NODES, help="grid nodes, real axis")
    sub.add_argument("--ny", type=int, default=DEFAULT_GRID_NODES, help="grid nodes, imaginary axis")
    sub.add_argument("--pad", type=float, default=DEFAULT_GRID_PAD, help="padding for the automatic grid")
    sub.add_argument(
        "--box",
        type=float,
        nargs=4,
        metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
        help="explicit grid bounds (overrides the automatic box)",
    )
    sub.add_argument("--eps", help="comma-separated pseudospectrum levels (default: 6 log-spaced)")
    sub.add_argument("--workers", type=int, help="SVD workers shared by all matrices (default: cpu count)")


def _check_out_dir(path: Path) -> None:
    """Fail as ``mkdir`` would if ``path`` or its nearest existing ancestor is not a directory; makes nothing."""
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(p))
            return


def _field_settings(args):
    """eps, the --box grid (None: automatic) and --out of analyze and compare, each checked before any input."""
    eps = _parse_eps(args.eps)
    if not (math.isfinite(args.stability_tol) and args.stability_tol >= 0.0):
        raise ValueError(f"--stability-tol must be finite and >= 0, got {args.stability_tol!r}")
    resolve_workers(args.workers)
    box = None if args.box is None else GridSpec(*args.box, args.nx, args.ny)
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    return eps, box, out_dir


def _analyze_jobs(jobs, eps, args, timing=False):
    """Fields, contours and reports of (name, matrix, grid) jobs, the fields on one SVD pool."""
    t0 = time.perf_counter()
    fields = compute_fields([(m, grid) for _, m, grid in jobs], eps, workers=args.workers)
    contours, reports = [], []
    for (name, m, _), field in zip(jobs, fields):
        contours.append(extract_contours(field, eps))
        reports.append(build_matrix_report(name, m, field, contours[-1], stability_tol=args.stability_tol))
        if timing:
            evaluated = f"{field.evaluated} of {field.exact.size} nodes evaluated"
            print(f"{name}: {time.perf_counter() - t0:.6g} s, {evaluated}", file=sys.stderr)
    return fields, contours, reports


def cmd_analyze(args) -> int:
    eps, box, out_dir = _field_settings(args)
    loaded = [load_matrix_any(p) for p in args.inputs]
    names = _unique_names(name for _, name in loaded)
    jobs = [(name, m, box or auto_grid(m, pad=args.pad, nx=args.nx, ny=args.ny)) for (m, _), name in zip(loaded, names)]
    if args.timing:
        pinned = ", ".join(one_thread.pinned)
        note = f"one thread ({pinned})" if pinned else "unpinned, no OpenBLAS thread setter found"
        print(f"blas: {note}", file=sys.stderr)
    fields, contours, reports = _analyze_jobs(jobs, eps, args, timing=args.timing)
    config = {
        "grid": "explicit" if args.box is not None else "auto",
        "box": list(args.box) if args.box is not None else None,
        "pad": args.pad,
        "nx": args.nx,
        "ny": args.ny,
        "eps_levels": eps,
        "stability_tol": args.stability_tol,
        "inputs": names,
    }
    text = serialize_report(AnalysisReport(version=__version__, config=config, matrices=reports))
    out_dir.mkdir(parents=True, exist_ok=True)
    for (name, m, grid), field, contour, rep in zip(jobs, fields, contours, reports):
        write_contours_csv(out_dir / f"contours-{name}.csv", contour)
        (out_dir / f"portrait-{name}.svg").write_text(
            portrait_svg([(name, field.eigenvalues, contour)], grid), encoding="utf-8"
        )
        verdict = "stable" if rep.stable else "UNSTABLE"
        print(
            f"{name}: {m.rows}x{m.cols} rho={rep.spectral_radius:.6g} "
            f"norm={rep.spectral_norm:.6g} henrici={rep.henrici:.6g} {verdict}"
        )
    (out_dir / "report.json").write_text(text, encoding="utf-8")
    return 0


def cmd_stabilize(args) -> int:
    config = _config(StabilizerConfig, args)
    m, name = load_matrix_any(args.input)
    result = stabilize(m, config)
    write_matrix_file(args.output, result.w_s, name)
    print(fmt_float(result.gain_estimate))
    # a few iterations underestimate the gain, and then rho(W_s) can exceed 1
    print(f"rho(W_s)={fmt_float(spectral_radius(result.w_s))}", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    eps, box, out_dir = _field_settings(args)
    before, before_name = load_matrix_any(args.before)
    after, after_name = load_matrix_any(args.after)
    if before.shape != after.shape:
        raise FormatError(f"dimension mismatch: {before_name} is {before.shape}, {after_name} is {after.shape}")
    names = _unique_names([f"before-{before_name}", f"after-{after_name}"])
    grid = box or auto_grid(before, after, pad=args.pad, nx=args.nx, ny=args.ny)
    fields, contours, reports = _analyze_jobs([(names[0], before, grid), (names[1], after, grid)], eps, args)
    counts = [[int((f.values <= e).sum()) for e in eps] for f in fields]
    delta = {
        "eps_levels": eps,
        "before": dataclasses.asdict(reports[0]),
        "after": dataclasses.asdict(reports[1]),
        "henrici_delta": reports[1].henrici - reports[0].henrici,
        "node_counts_before": counts[0],
        "node_counts_after": counts[1],
        "node_count_ratio": [a / b if b else None for a, b in zip(counts[1], counts[0])],
    }
    text = emit(delta)
    svg = portrait_svg([(n, f.eigenvalues, c) for n, f, c in zip(names, fields, contours)], grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "compare.json").write_text(text, encoding="utf-8")
    (out_dir / "compare.svg").write_text(svg, encoding="utf-8")
    print(
        f"henrici {reports[0].henrici:.6g} -> {reports[1].henrici:.6g}; "
        f"rho {reports[0].spectral_radius:.6g} -> {reports[1].spectral_radius:.6g}"
    )
    return 0


def _history_csv(history, gates) -> str:
    cols = ["epoch", "loss", "accuracy"]
    for g in gates:
        cols += [f"{g}_rho", f"{g}_henrici"]
    lines = [",".join(cols)]
    for rec in history:
        row = [str(rec.epoch), fmt_float(rec.loss), fmt_float(rec.accuracy)]
        for g in gates:
            rep = rec.gate_reports[g]
            row += [fmt_float(rep.spectral_radius), fmt_float(rep.henrici)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _config(cls, args):
    """The ``cls`` dataclass built from the parsed flags, each field from the flag of that destination."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def cmd_train(args) -> int:
    if args.task == "adding":
        for flag in ("images", "labels", "test_images", "test_labels"):
            if getattr(args, f"mnist_{flag}") is not None:
                raise ValueError(f"--mnist-{flag.replace('_', '-')} applies only to --task mnist")
    if args.snapshot_every < 0:
        raise ValueError(f"--snapshot-every must be >= 0 (0 disables snapshots), got {args.snapshot_every}")
    cfg = _config(TrainConfig, args)
    if args.task == "adding":
        train_ds, eval_ds = adding_splits(args.train_size, args.test_size, args.seq_len, args.seed)
    else:
        train_ds, eval_ds = mnist_splits(
            args.mnist_images, args.mnist_labels, args.train_size, args.test_size,
            args.mnist_test_images, args.mnist_test_labels,
        )
    out_dir = Path(args.out)
    _check_out_dir(out_dir)

    def write_gates(cell, tag):
        out_dir.mkdir(parents=True, exist_ok=True)
        for gate in cell.gates:
            write_matrix_file(
                out_dir / f"weights-{tag}-{gate}.pspc", Matrix(cell.w_rec[gate]), f"{cfg.kind}-{gate}"
            )

    def snapshot(cell, record):
        epoch = record.epoch
        print(
            f"epoch {record.epoch:3d} loss {record.loss:.6f} accuracy {record.accuracy:.4f}",
            flush=True,
        )
        if args.snapshot_every and epoch % args.snapshot_every == 0:
            write_gates(cell, f"epoch{epoch:03d}")
            rep = AnalysisReport(
                version=__version__,
                config={"task": train_ds.task, "kind": cfg.kind, "epoch": epoch, "seed": cfg.seed},
                matrices=list(record.gate_reports.values()),
            )
            (out_dir / f"report-epoch{epoch:03d}.json").write_text(
                serialize_report(rep), encoding="utf-8"
            )

    cell, history = train(cfg, train_ds, eval_ds, on_epoch=snapshot)
    write_gates(cell, "final")
    (out_dir / "history.csv").write_text(_history_csv(history, cell.gates), encoding="utf-8")
    final = history[-1]
    print(f"final accuracy {final.accuracy:.4f} after {final.epoch} epochs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specto",
        description="Spectral stability / robustness analysis of recurrent weight matrices.",
    )
    parser.add_argument("--version", action="version", version=f"specto {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="pseudospectrum portraits and metrics for matrix files")
    p.add_argument("inputs", nargs="+", help="matrix files (.pspc container or numeric CSV)")
    p.add_argument("--out", required=True, help="output directory")
    _grid_flags(p)
    p.add_argument("--stability-tol", type=float, default=DEFAULT_STABILITY_TOL)
    p.add_argument(
        "--timing",
        action="store_true",
        help="print the BLAS pin, and each matrix's seconds since the fields began and its evaluated nodes, to stderr",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train a recurrent cell and track its spectrum")
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--kind", choices=KINDS, default=TrainConfig.kind)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--batch", type=int, default=TrainConfig.batch)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument(
        "--clip", dest="grad_clip", metavar="CLIP", type=float, default=TrainConfig.grad_clip,
        help="gradient norm clip; 0 disables",
    )
    p.add_argument(
        "--stabilize",
        type=int,
        nargs="?",
        const=StabilizerConfig.m,
        default=TrainConfig.stabilize,
        metavar="M",
        help="rescale every gate matrix after each epoch (M power iterations)",
    )
    p.add_argument("--train-size", type=int, default=10000)
    p.add_argument("--test-size", type=int, default=1000)
    p.add_argument("--seq-len", type=int, default=50)
    p.add_argument("--memory-bias", type=float, default=TrainConfig.memory_bias)
    p.add_argument("--target-accuracy", type=float, default=TrainConfig.target_accuracy)
    p.add_argument("--snapshot-every", type=int, default=1, help="0 disables per-epoch weight snapshots")
    p.add_argument("--mnist-images")
    p.add_argument("--mnist-labels")
    p.add_argument("--mnist-test-images")
    p.add_argument("--mnist-test-labels")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("stabilize", help="power-iteration rescale of a weight matrix")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("-m", type=int, default=StabilizerConfig.m, help="power iterations")
    p.add_argument("--seed", type=int, default=StabilizerConfig.seed)
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("compare", help="side-by-side pseudospectra of two matrices")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--out", required=True)
    _grid_flags(p)
    p.add_argument("--stability-tol", type=float, default=DEFAULT_STABILITY_TOL)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with one_thread:
            return args.func(args)
    except (FormatError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"specto: input error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"specto: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"specto: usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size past memory, such as a huge --seq-len or grid
        print(f"specto: usage error: {exc or 'out of memory'}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
