"""Benchmark of the specto pipelines users run: train, analyze, stabilize, compare.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; specto is imported from its ``src/``. One
process runs one workload closed loop through ``specto.cli.main`` with
default flags and environment: each operation starts when the previous one
has ended, and the loop starts rounds until ``--seconds`` have passed (at
least two rounds). Every operation's outputs are checked against independent
oracles (``checks.py``); a nonzero exit, an exception or a failed check
counts as a failed operation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics derived from
spans recorded around the calls into each module (``spans.py``), plus the
tracing overhead. Human-readable lines, the environment and the seed come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record is also
written to ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import check_analyze, check_stabilize_compare, check_train, read_pspc, write_pspc

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "work"

# setup_s is the median of at least this many full set-ups; cheap set-ups
# repeat until SETUP_BUDGET_S is spent, up to SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 10, 3.0
MIN_ROUNDS = 2  # byte-determinism is checked between rounds of one run
TIME_CAP_S = 150.0  # start no round after this, whatever --seconds says
CONTOUR_SAMPLE = 16  # contour vertices checked against the SVD oracle per file
DEFAULT_GRID = 200  # the CLI's default nodes per grid axis


@dataclass(frozen=True)
class Scale:
    train_flags: tuple  # extra flags of every `train` command
    train_size: int
    seq_len: int
    gru_grid: int  # grid nodes per axis for the GRU gates
    wide_n: int
    wide_grid: int


# CLI defaults: 10k/1k adding sequences, T=50, hidden 32, batch 16.
FULL = Scale((), 10000, 50, DEFAULT_GRID, 128, 40)
# Seconds-long sizes for the smoke run; the same code paths at toy size.
TOY = Scale(("--train-size", "256", "--test-size", "64", "--seq-len", "20"), 256, 20, 24, 24, 10)


@dataclass
class Op:
    kind: str
    commands: list  # argv lists run in order and timed together
    out: Path


GRU_GATES = ("update", "reset", "candidate")


def train_gru_fixture(work: Path, scale: Scale, seed: int) -> dict[str, Path]:
    """Set-up shared by the GRU workloads: 1 epoch of adding at CLI defaults."""
    fixture = work / "fixture"
    argv = ["train", "--task", "adding", "--kind", "gru", "--epochs", "1", "--seed", str(seed)]
    code, _ = run_cli(argv + ["--out", str(fixture), *scale.train_flags])
    if code != 0:
        raise RuntimeError(f"GRU fixture training exited with {code}")
    return {f"gru-{g}": fixture / f"weights-final-{g}.pspc" for g in GRU_GATES}


def grid_flags(nodes: int) -> list[str]:
    return [] if nodes == DEFAULT_GRID else ["--nx", str(nodes), "--ny", str(nodes)]


class GruGatesAnalyze:
    # The pipeline users run, where the field kernel takes >=99% of the time on
    # many tiny SVDs; lockstep kernels, symmetry and Lipschitz skipping show here.
    name = "gru-gates-analyze"
    kinds = ("analyze",)
    timing_names = {"analyze": "analyze_s"}
    unit_name = "nodes_per_s"

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed
        self.units = {"analyze": 3 * scale.gru_grid**2}

    def prepare(self, work: Path) -> None:
        self.paths = train_gru_fixture(work, self.scale, self.seed)
        self.inputs = {name: read_pspc(path) for name, path in self.paths.items()}

    def round(self, out: Path) -> list[Op]:
        paths = [str(p) for p in self.paths.values()]
        return [Op("analyze", [["analyze", *paths, "--out", str(out), *grid_flags(self.scale.gru_grid)]], out)]

    def check(self, op: Op, printed: list[str], rng) -> list[str]:
        return check_analyze(op.out, self.inputs, rng, CONTOUR_SAMPLE)


class StabilizeCompare:
    """`specto stabilize -m 200` then `specto compare` of a matrix against its rescale."""

    kinds = ("compare",)
    timing_names = {"compare": "compare_s"}
    unit_name = "nodes_per_s"

    def __init__(self, scale: Scale, seed: int, grid: int):
        self.scale, self.seed, self.grid = scale, seed, grid
        self.units = {"compare": 2 * grid**2}

    def round(self, out: Path) -> list[Op]:
        ws = out / "stabilized.pspc"
        return [
            Op(
                "compare",
                [
                    ["stabilize", str(self.path), str(ws), "-m", "200"],
                    ["compare", str(self.path), str(ws), "--out", str(out), *grid_flags(self.grid)],
                ],
                out,
            )
        ]

    def check(self, op: Op, printed: list[str], rng) -> list[str]:
        return check_stabilize_compare(op.out, self.w, op.out / "stabilized.pspc", printed[0])


class GruGateCompare(StabilizeCompare):
    # The stabilize -> compare step users run after analyze: the stabilizer,
    # compare.json and compare_svg, with two matrices sharing one default grid.
    name = "gru-gate-compare"

    def __init__(self, scale: Scale, seed: int):
        super().__init__(scale, seed, scale.gru_grid)

    def prepare(self, work: Path) -> None:
        self.path = train_gru_fixture(work, self.scale, self.seed)["gru-candidate"]
        self.w = read_pspc(self.path)


class WideCompare(StabilizeCompare):
    # The O(n^3)-per-node regime under the SPECTO_THREADS pool x OpenBLAS threads.
    # Not in BENCHMARK.json: in the default environment that mix makes the per-node
    # time flip between ~1.7 and ~4.5 ms every few seconds, so no run fitting the
    # time budget has a steady median. Kept to show that defect once it is fixed.
    name = "wide-compare"

    def __init__(self, scale: Scale, seed: int):
        super().__init__(scale, seed, scale.wide_grid)

    def prepare(self, work: Path) -> None:
        n = self.scale.wide_n
        self.w = np.random.default_rng(self.seed).standard_normal((n, n)) / np.sqrt(n)
        self.path = work / "wide.pspc"
        write_pspc(self.path, self.w, "wide")


class TrainCells:
    # Bypass workload for every analysis change: cell forward/backward dominate and
    # the field kernel never runs; rnn, lstm and gru use the cell layer with 1, 4 and 3 gates.
    name = "train-cells"
    kinds = ("rnn", "lstm", "gru")
    timing_names = {k: f"train_{k}_s" for k in kinds}
    unit_name = "seq_per_s"
    gates = {"rnn": ("recurrent",), "lstm": ("input", "forget", "cell", "output"), "gru": GRU_GATES}

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed
        self.units = dict.fromkeys(self.kinds, scale.train_size)

    def prepare(self, work: Path) -> None:
        pass  # the CLI generates the training data inside the command

    def round(self, out: Path) -> list[Op]:
        return [
            Op(
                kind,
                [
                    [
                        "train", "--task", "adding", "--kind", kind, "--epochs", "1",
                        "--seed", str(self.seed), "--out", str(out / kind), *self.scale.train_flags,
                    ]
                ],
                out / kind,
            )
            for kind in self.kinds
        ]

    def check(self, op: Op, printed: list[str], rng) -> list[str]:
        cell = CAPTURED_CELLS[-1] if CAPTURED_CELLS else None
        return check_train(op.out, cell, self.gates[op.kind], 1, self.scale.seq_len, rng)


WORKLOADS = {w.name: w for w in (GruGatesAnalyze, GruGateCompare, TrainCells, WideCompare)}
CAPTURED_CELLS: list = []


def run_cli(argv, tracer=None, op_id=-1):
    """specto.cli.main(argv) with its stdout captured; (exit code, printed text)."""
    import specto.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = specto.cli.main(argv)
            else:
                code = tracer.run_root(op_id, specto.cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = "exception"
    return code, buf.getvalue()


def capture_trained_cells() -> None:
    """Keep the cell each `train` command returns, for the gradient oracle."""
    import specto.cli

    original = specto.cli.train

    @functools.wraps(original)
    def train(*args, **kwargs):
        result = original(*args, **kwargs)
        CAPTURED_CELLS[:] = [result[0]]
        return result

    specto.cli.train = train


def fresh_import() -> None:
    """Start a fresh interpreter that imports the CLI, the start-up a user pays."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import specto.cli"], env=env, cwd=ROOT, check=True, timeout=120)


def environment() -> dict:
    import scipy
    from specto.pseudospectrum import resolve_workers

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "SPECTO_THREADS": os.environ.get("SPECTO_THREADS"),
        "resolve_workers": resolve_workers(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "caches": caches,
        "loadavg": os.getloadavg(),
    }


def more_setups(times: list[float]) -> bool:
    if len(times) < SETUP_MIN_REPEATS:
        return True
    return len(times) < SETUP_MAX_REPEATS and sum(times) < SETUP_BUDGET_S


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Runner:
    def __init__(self, workload, seed: int, work: Path, tracer=None):
        self.workload, self.seed, self.work, self.tracer = workload, seed, work, tracer
        self.times = {k: [] for k in workload.kinds}
        self.attempted = self.failed = 0
        self.digests: dict[tuple, bytes] = {}
        self.op_id = 0

    def execute(self, op: Op, traced: bool) -> float:
        op.out.mkdir(parents=True, exist_ok=True)
        op_id, self.op_id = self.op_id, self.op_id + 1
        printed = []
        t0 = time.perf_counter()
        for argv in op.commands:
            code, text = run_cli(argv, self.tracer if traced else None, op_id)
            printed.append(text)
            if code != 0:
                break
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if code != 0:
            errors = [f"{argv[0]} exited with {code}"]
        else:
            try:
                errors = self.workload.check(op, printed, np.random.default_rng((self.seed, op_id)))
                errors += self.check_repeat(op)
            except Exception as exc:  # malformed or missing output: a failed op, not a crashed run
                errors = [f"output check raised {exc!r}"]
        if errors:
            self.failed += 1
            print(f"FAILED {op.kind} op {op_id}: " + "; ".join(errors[:5]), file=sys.stderr)
        shutil.rmtree(op.out, ignore_errors=True)
        self.times[op.kind].append(elapsed)
        return elapsed

    def check_repeat(self, op: Op) -> list[str]:
        """Same inputs and flags must give byte-identical outputs in every round."""
        errors = []
        for path in sorted(op.out.iterdir()):
            key = (op.kind, path.name)
            data = path.read_bytes()
            if self.digests.setdefault(key, data) != data:
                errors.append(f"{path.name} differs from the first round's bytes")
        return errors

    def round(self, index: int, traced: bool) -> tuple[float, list[int]]:
        first = self.op_id
        ops = self.workload.round(self.work / f"round{index}")
        wall = sum(self.execute(op, traced) for op in ops)
        return wall, list(range(first, self.op_id))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full", help="toy: seconds-long smoke sizes")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "specto" / "__init__.py").is_file():
        print(f"perfbench: no specto sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import specto

    if Path(specto.__file__).resolve().parent != (ROOT / "src" / "specto").resolve():
        print(f"perfbench: imported specto from {specto.__file__}, not this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment()
    scale = FULL if args.scale == "full" else TOY
    workload = WORKLOADS[args.workload](scale, args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} scale {args.scale}")
    print("environment " + json.dumps(env))

    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    capture_trained_cells()
    try:
        setup_times = []
        while not setup_times or not args.trace and more_setups(setup_times):
            t0 = time.perf_counter()
            fresh_import()
            (work / f"setup{len(setup_times)}").mkdir(parents=True)
            workload.prepare(work / f"setup{len(setup_times)}")
            setup_times.append(time.perf_counter() - t0)
        runner = Runner(workload, args.seed, work, tracer)
        if args.trace:
            metrics, errors = traced_rounds(runner, tracer, args.seconds, started)
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, errors = untraced_rounds(runner, args.seconds, started)
            metrics["setup_s"] = median(setup_times)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": env,
        "setup_s_samples": setup_times,
        "op_s_samples": runner.times,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_ops_ratio": runner.failed / runner.attempted,
        "errors": errors,
        "metrics": metrics,
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"  {name:40s} {value:<14.6g} {units.get(name) or ('1/s' if name.endswith('_per_s') else 's')}")
    print(f"  failed_ops_ratio {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.6g}")
    if not args.trace:
        print(f"  setup_s is the median of {len(setup_times)} set-ups; op times are medians of the counts above")
    for error in errors:
        print(f"  ERROR {error}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    result = {
        "correct": runner.failed == 0 and not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def untraced_rounds(runner: Runner, seconds: float, started: float):
    t0 = time.perf_counter()
    index = 0
    while index < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        if time.perf_counter() - started > TIME_CAP_S and index > 0:
            break
        runner.round(index, traced=False)
        index += 1
    w = runner.workload
    per_kind = {k: median(runner.times[k]) for k in w.kinds}
    op_s = sum(per_kind.values())
    metrics = {w.timing_names[k]: v for k, v in per_kind.items()}
    metrics[w.unit_name] = sum(w.units.values()) / op_s
    metrics["op_s"] = op_s
    metrics["units_per_s"] = metrics[w.unit_name]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_ops_ratio"] = 1.0 - runner.failed / runner.attempted
    print(f"rounds {index}; samples per kind " + ", ".join(f"{k}={len(runner.times[k])}" for k in w.kinds))
    return metrics, []


def traced_rounds(runner: Runner, tracer, seconds: float, started: float):
    """Alternate traced and untraced rounds; per-layer medians over the traced ones."""
    from spans import REPEATING_COUNTS

    t0 = time.perf_counter()
    traced_walls, untraced_walls, per_round = [], [], []
    index = 0
    while len(traced_walls) < 2 or not untraced_walls or time.perf_counter() - t0 < seconds:
        if time.perf_counter() - started > TIME_CAP_S and index > 0:
            break
        traced = index % 2 == 0
        if traced:
            tracer.install()
        try:
            wall, op_ids = runner.round(index, traced)
        finally:
            tracer.uninstall()
        if traced:
            traced_walls.append(wall)
            per_round.append(tracer.layer_metrics(op_ids))
        else:
            untraced_walls.append(wall)
        index += 1
    metrics = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        metrics[name] = values[0] if len(set(values)) == 1 else median(values)
    untraced = median(untraced_walls)
    metrics["trace.untraced_op_s"] = untraced
    metrics["trace.overhead_ratio"] = median(traced_walls) / untraced - 1.0 if untraced else 0.0
    metrics["trace.spans"] = len(tracer.spans) / len(per_round)
    errors = [
        f"count {name} does not repeat across rounds: {[r[name] for r in per_round]}"
        for name in REPEATING_COUNTS
        if len({r[name] for r in per_round}) != 1
    ]
    print(f"rounds {index}: {len(traced_walls)} traced, {len(untraced_walls)} untraced")
    return metrics, errors


if __name__ == "__main__":
    sys.exit(main())
