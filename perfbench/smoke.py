"""Toy-size smoke run of the benchmark and a self-test of its output gates.

    python3 perfbench/smoke.py

Checks, at seconds-long sizes, that every workload
- prints as its last line the result object with every metric that
  BENCHMARK.json names for that trace mode, each with its unit;
- gives the same repeating counts in two traced runs on one seed;
and that the correctness gates reject corrupted outputs, and that the
benchmark exits nonzero without a result when the sources are missing.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import REPEATING_COUNTS  # noqa: E402


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"smoke: FAILED: {what}")
        sys.exit(1)
    print(f"smoke: ok: {what}")


def result_of(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "toy"])
    expect(proc.returncode == 0, f"{workload} trace {trace} exits 0 ({proc.stderr[-500:]})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(spec: dict) -> None:
    for workload in run.WORKLOADS:
        traced = []
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, spec["per_layer"])):
            res = result_of(workload, trace)
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{workload}: result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, f"{workload} trace {trace}: correct")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: every declared metric with its unit")
            expect(
                all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()), f"{workload}: numeric values"
            )
            if trace:
                traced.append(res["metrics"])
        for name in REPEATING_COUNTS:
            a, b = traced[0][name]["value"], traced[1][name]["value"]
            expect(a == b, f"{workload}: {name} repeats across runs ({a} vs {b})")


def run_op(workload, out: Path):
    op = workload.round(out)[0]
    op.out.mkdir(parents=True, exist_ok=True)
    printed = []
    for argv in op.commands:
        code, text = run.run_cli(argv)
        expect(code == 0, f"{argv[0]} exits 0")
        printed.append(text)
    return op, printed


def shift_vertices(csv: Path, grid: dict, along: bool) -> None:
    """Move contour vertices: the first one off its grid line, or all along theirs."""
    re_ax = np.linspace(grid["re_min"], grid["re_max"], grid["nx"])
    re_step = (grid["re_max"] - grid["re_min"]) / (grid["nx"] - 1)
    im_step = (grid["im_max"] - grid["im_min"]) / (grid["ny"] - 1)
    lines = csv.read_text(encoding="utf-8").splitlines()
    for k in range(1, len(lines) if along else 2):
        level, pid, re_, im_ = lines[k].split(",")
        re_, im_ = float(re_), float(im_)
        if not along:
            re_, im_ = re_ + 1e-3 * re_step, im_ + 1e-3 * im_step
        elif re_ in re_ax:
            im_ += 0.3 * im_step
        else:
            re_ += 0.3 * re_step
        lines[k] = ",".join([level, pid, repr(re_), repr(im_)])
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def gate_self_test(work: Path) -> None:
    def rng():
        return np.random.default_rng(0)

    run.capture_trained_cells()

    analyze = run.GruGatesAnalyze(run.TOY, 5)
    (work / "a").mkdir(parents=True)
    analyze.prepare(work / "a")
    op, printed = run_op(analyze, work / "a" / "out")
    expect(analyze.check(op, printed, rng()) == [], "analyze gate passes on good output")
    csv = op.out / "contours-gru-update.csv"
    good = csv.read_text(encoding="utf-8")
    grid = json.loads((op.out / "report.json").read_text(encoding="utf-8"))["matrices"][0]["grid"]
    for along, what in ((False, "a vertex shifted off its edge"), (True, "vertices slid along their grid lines")):
        shift_vertices(csv, grid, along)
        expect(analyze.check(op, printed, rng()) != [], f"analyze gate rejects {what}")
        csv.write_text(good, encoding="utf-8")
    expect(analyze.check(op, printed, rng()) == [], "analyze gate passes again on restored output")

    def skew_norm(doc):
        doc["matrices"][0]["spectral_norm"] *= 1 + 1e-7

    edit_json(op.out / "report.json", skew_norm)
    expect(analyze.check(op, printed, rng()) != [], "analyze gate rejects a spectral norm off by 1e-7")

    compare = run.GruGateCompare(run.TOY, 5)
    (work / "c").mkdir()
    compare.prepare(work / "c")
    op, printed = run_op(compare, work / "c" / "out")
    expect(compare.check(op, printed, rng()) == [], "compare gate passes on good output")
    edit_json(op.out / "compare.json", lambda doc: doc.update(henrici_delta=1e-6))
    expect(compare.check(op, printed, rng()) != [], "compare gate rejects a nonzero Henrici delta")

    cells = run.TrainCells(run.TOY, 5)
    op = cells.round(work / "t")[0]
    op.out.mkdir(parents=True)
    code, text = run.run_cli(op.commands[0])
    expect(code == 0 and cells.check(op, [text], rng()) == [], "train gate passes on good output")
    runner = run.Runner(cells, 5, work)
    expect(runner.check_repeat(op) == [], "history.csv digest recorded")
    history = op.out / "history.csv"
    good = history.read_text(encoding="utf-8")
    history.write_text(good.rsplit(",", 1)[0] + ",nan\n", encoding="utf-8")
    expect(cells.check(op, [text], rng()) != [], "train gate rejects a non-finite history row")
    expect(runner.check_repeat(op) != [], "train gate rejects history.csv bytes that differ between rounds")
    history.write_text(good, encoding="utf-8")

    import specto.rnn

    original = specto.rnn.batch_loss_and_grads

    def skewed(*args, **kwargs):
        value, grads = original(*args, **kwargs)
        return value, {k: g * 1.001 for k, g in grads.items()}

    specto.rnn.batch_loss_and_grads = skewed
    try:
        expect(cells.check(op, [text], rng()) != [], "train gate rejects gradients off by 0.1%")
    finally:
        specto.rnn.batch_loss_and_grads = original


def bare_directory(work: Path) -> None:
    bare = work / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = bench(["--workload", "train-cells", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"), "exits nonzero without a result when src/ is missing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bare_directory(work)
        gate_self_test(work)
        check_emitted(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: all expectations met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
