"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 6 and 8 share
one set of desk-scale training runs (module-scoped fixture). The
sequential-image criterion uses real MNIST IDX files when
SPECTO_MNIST_DIR points at them (train-images-idx3-ubyte /
train-labels-idx1-ubyte), else a procedural 10-class digit set written and
read through the same IDX pipeline.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from conftest import random_circulant, random_hermitian, random_unitary, scaled_to_radius

from specto import (
    GridSpec,
    Matrix,
    StabilizerConfig,
    compute_field,
    eigenvalues,
    henrici_number,
    kreiss_sandwich_check,
    parse_report,
    sigma_min_at,
    spectral_radius,
    stabilize,
    two_norm,
)
from specto.cli import main as cli_main
from specto.rnn import (
    Dataset,
    TrainConfig,
    accuracy,
    adding_splits,
    batch_loss_and_grads,
    forward_batch,
    init_cell,
    load_mnist_idx,
    loss,
    param_items,
    synthetic_digits,
    train,
    write_idx_images,
    write_idx_labels,
)


@contextmanager
def criterion(num, desc, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} FAIL [{time.perf_counter() - t0:6.1f}s]: {desc}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num:2d} PASS [{elapsed:6.1f}s]: {desc}", flush=True)
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeded budget {budget_s}s"


def test_criterion_01_normal_pseudospectrum_oracle():
    with criterion(1, "sigma_min equals eigenvalue distance for normal matrices", budget_s=5.0):
        rng = np.random.default_rng(101)
        makers = (random_hermitian, random_unitary, random_circulant)
        worst = 0.0
        for k in range(20):
            n = int(rng.integers(2, 17))
            w = makers[k % 3](rng, n)
            evs = eigenvalues(w)
            span = float(np.abs(evs).max()) + 1.0
            lams = rng.uniform(-span, span, 200) + 1j * rng.uniform(-span, span, 200)
            for lam in lams:
                err = abs(sigma_min_at(w, lam) - np.abs(evs - lam).min())
                worst = max(worst, err)
        assert worst <= 1e-8, f"max abs error {worst:.3e}"


def test_criterion_02_jordan_block_closed_forms():
    with criterion(2, "Jordan-block sigma_min and Henrici closed forms"):
        jordan = Matrix([[0.0, 1.0], [0.0, 0.0]])
        closed = (np.sqrt(2) - 1) / 2
        got = sigma_min_at(jordan, 0.5)
        assert abs(got - closed) <= 1e-9
        oracle = np.linalg.svd([[-0.5, 1.0], [0.0, -0.5]], compute_uv=False)[-1]
        assert abs(got - oracle) <= 1e-12
        assert abs(henrici_number(jordan) - np.sqrt(2)) <= 1e-12


def test_criterion_03_kreiss_sandwich():
    with criterion(3, "Kreiss sandwich holds for 50 random stable matrices", budget_s=120.0):
        rng = np.random.default_rng(2024)
        eps_list = np.logspace(-4, 0, 20)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            w = scaled_to_radius(rng, n, float(rng.uniform(0.5, 0.95)))
            half = two_norm(w) + 1.2
            field = compute_field(w, GridSpec(-half, half, -half, half, 160, 160), workers=1)
            res = kreiss_sandwich_check(w, field, eps_list, l_max=64, slack=0.05)
            assert res.holds, f"sandwich failed: {res}"


def test_criterion_04_stabilization_properties():
    with criterion(4, "stabilize(m=200): unit norm, stable radius, Henrici untouched"):
        rng = np.random.default_rng(777)
        for k in range(50):
            n = int(rng.integers(2, 33))
            w = Matrix(rng.standard_normal((n, n)))
            res = stabilize(w, StabilizerConfig(m=200, seed=k))
            assert abs(two_norm(res.w_s) - 1.0) <= 1e-6
            assert spectral_radius(res.w_s) <= 1.0 + 1e-6
            assert abs(henrici_number(res.w_s) - henrici_number(w)) <= 1e-9


def test_criterion_05_gradient_checks():
    with criterion(5, "BPTT matches central finite differences for all cell kinds", budget_s=60.0):
        h = 1e-5
        worst = 0.0
        for kind in ("rnn", "lstm", "gru"):
            for seed in range(5):
                rng = np.random.default_rng(900 + seed)
                hidden = int(rng.integers(3, 9))
                steps = int(rng.integers(4, 11))
                cell = init_cell(kind, 2, hidden, 1, seed=rng, memory_bias=0.5)
                for _, arr in param_items(cell):
                    arr += rng.normal(0, 0.3, arr.shape)
                seq = rng.normal(0, 1, (steps, 2))
                target = float(rng.uniform(0, 2))
                _, grads = batch_loss_and_grads(cell, seq[None], np.array([target]), "adding")
                for name, arr in param_items(cell):
                    flat = arr.reshape(-1)
                    gflat = grads[name].reshape(-1)
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + h
                        up = loss(forward_batch(cell, seq[None])[1][0], target, "adding")
                        flat[i] = orig - h
                        dn = loss(forward_batch(cell, seq[None])[1][0], target, "adding")
                        flat[i] = orig
                        num = (up - dn) / (2 * h)
                        rel = abs(gflat[i] - num) / max(abs(gflat[i]), abs(num), 1e-6)
                        worst = max(worst, rel)
        assert worst <= 1e-4, f"max relative gradient error {worst:.3e}"


@pytest.fixture(scope="module")
def adding_runs():
    """Desk-scale adding-task training, 3 seeds, shared by criteria 6 and 8."""
    train_ds, test_ds = adding_splits(10000, 1000, 50, seed=123)
    runs = []
    for seed in (0, 1, 2):
        cfg = TrainConfig(
            kind="gru",
            hidden=32,
            batch=16,
            epochs=30,
            learning_rate=0.5,
            seed=seed,
            grad_clip=1.0,
            memory_bias=2.0,
            target_accuracy=0.90,
        )
        cell, history = train(cfg, train_ds, test_ds)
        runs.append((cell, history, accuracy(cell, test_ds)))
    return runs


def test_criterion_06_adding_task_desk_scale(adding_runs):
    with criterion(6, "adding task: accuracy >= 0.90 for at least 2 of 3 seeds", budget_s=600.0):
        accs = [acc for _, _, acc in adding_runs]
        epochs = [hist[-1].epoch for _, hist, _ in adding_runs]
        print(f"  accuracies {['%.4f' % a for a in accs]} after epochs {epochs}")
        assert all(e <= 30 for e in epochs)
        assert sum(a >= 0.90 for a in accs) >= 2, f"accuracies {accs}"


def _mnist_desk_dataset(tmp_path):
    env_dir = os.environ.get("SPECTO_MNIST_DIR")
    if env_dir:
        images = Path(env_dir) / "train-images-idx3-ubyte"
        labels = Path(env_dir) / "train-labels-idx1-ubyte"
        if images.exists() and labels.exists():
            print("  using real MNIST IDX files")
            return load_mnist_idx(images, labels)
    print("  SPECTO_MNIST_DIR unset: using the procedural digit set through the IDX pipeline")
    images, labels = synthetic_digits(6000, seed=7)
    ipath, lpath = tmp_path / "digits.idx3", tmp_path / "digits.idx1"
    write_idx_images(ipath, images)
    write_idx_labels(lpath, labels)
    return load_mnist_idx(ipath, lpath)


def test_criterion_07_sequential_image_desk_scale(tmp_path):
    with criterion(7, "sequential image task: RNN beats 10-class chance (acc > 0.15)"):
        full = _mnist_desk_dataset(tmp_path)
        train_ds = Dataset(full.inputs[:5000], full.targets[:5000], "mnist")
        test_ds = Dataset(full.inputs[5000:6000], full.targets[5000:6000], "mnist")
        cfg = TrainConfig(
            kind="rnn",
            hidden=64,
            batch=8,
            epochs=20,
            learning_rate=1e-3,
            seed=0,
            grad_clip=1.0,
        )
        cell, history = train(cfg, train_ds, test_ds)
        acc = accuracy(cell, test_ds)
        print(f"  test accuracy {acc:.4f}")
        assert acc > 0.15


def test_criterion_08_trained_gates_are_nonnormal(adding_runs):
    with criterion(8, "every trained cell has a gate with Henrici number >= 0.1"):
        for k, (cell, _, _) in enumerate(adding_runs):
            values = {g: henrici_number(Matrix(cell.w_rec[g])) for g in cell.gates}
            print(f"  seed {k} gate henrici: " + " ".join(f"{g}={v:.3f}" for g, v in values.items()))
            assert max(values.values()) >= 0.1


def test_criterion_09_pipeline_determinism(tmp_path):
    with criterion(9, "train + analyze twice: byte-identical report.json and SVGs"):
        outputs = []
        for tag in ("first", "second"):
            run_dir = tmp_path / f"train-{tag}"
            ana_dir = tmp_path / f"analyze-{tag}"
            code = cli_main(
                ["train", "--task", "adding", "--kind", "gru", "--out", str(run_dir),
                 "--hidden", "8", "--epochs", "2", "--train-size", "300", "--test-size", "50",
                 "--seq-len", "12", "--seed", "11", "--snapshot-every", "0"]
            )
            assert code == 0
            gates = sorted(str(p) for p in run_dir.glob("weights-final-*.pspc"))
            code = cli_main(["analyze", *gates, "--out", str(ana_dir), "--nx", "61", "--ny", "61"])
            assert code == 0
            report = (ana_dir / "report.json").read_bytes()
            svgs = {p.name: p.read_bytes() for p in ana_dir.glob("*.svg")}
            assert svgs, "analyze produced no portraits"
            outputs.append((report, svgs))
        assert outputs[0][0] == outputs[1][0], "report.json differs between runs"
        assert outputs[0][1] == outputs[1][1], "SVG portraits differ between runs"
        parse_report(outputs[0][0].decode("utf-8"))  # and it is valid


def test_criterion_10_field_performance_and_worker_invariance():
    with criterion(10, "n=128 field on 100x100 grid: < 120 s single worker, worker-invariant"):
        rng = np.random.default_rng(4096)
        w = Matrix(rng.standard_normal((128, 128)) / np.sqrt(128))
        grid = GridSpec(-1.6, 1.6, -1.6, 1.6, 100, 100)
        t0 = time.perf_counter()
        base = compute_field(w, grid, workers=1)
        single = time.perf_counter() - t0
        print(f"  single-worker field time {single:.1f}s")
        assert single < 120.0
        again = compute_field(w, grid, workers=3)
        assert np.array_equal(base.values, again.values), "values depend on worker count"
