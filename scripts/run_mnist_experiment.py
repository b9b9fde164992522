#!/usr/bin/env python3
"""Sequential image classification: each image row is one time step.

Reads MNIST IDX files when --images/--labels are given; otherwise generates
the procedural digit set, writes it through the IDX container and reads it
back, so the full file pipeline is exercised either way. Prints accuracy
and the per-gate non-normality of the trained recurrent matrix.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from specto import build_matrix_report
from specto.rnn import (
    Dataset,
    TrainConfig,
    accuracy,
    extract_recurrent_matrices,
    load_mnist_idx,
    synthetic_digits,
    train,
    write_idx_images,
    write_idx_labels,
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--images", help="IDX image file (e.g. train-images-idx3-ubyte)")
    ap.add_argument("--labels", help="IDX label file")
    ap.add_argument("--kind", choices=("rnn", "lstm", "gru"), default="rnn")
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--train-size", type=int, default=5000)
    ap.add_argument("--test-size", type=int, default=1000)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--batch", type=int, default=8)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def load_data(args):
    if args.images and args.labels:
        print(f"loading IDX data from {args.images}")
        return load_mnist_idx(args.images, args.labels)
    print("no IDX paths given: generating the procedural digit set")
    images, labels = synthetic_digits(args.train_size + args.test_size, seed=args.seed + 7)
    with tempfile.TemporaryDirectory() as tmp:
        ipath, lpath = Path(tmp) / "digits.idx3", Path(tmp) / "digits.idx1"
        write_idx_images(ipath, images)
        write_idx_labels(lpath, labels)
        return load_mnist_idx(ipath, lpath)


def main():
    args = parse_args()
    full = load_data(args)
    n_train = min(args.train_size, len(full) - args.test_size)
    train_ds = Dataset(full.inputs[:n_train], full.targets[:n_train], "mnist")
    test_ds = Dataset(
        full.inputs[n_train : n_train + args.test_size],
        full.targets[n_train : n_train + args.test_size],
        "mnist",
    )
    cfg = TrainConfig(task="mnist", kind=args.kind, hidden=args.hidden, batch=args.batch,
                      epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    print(f"training {cfg.kind} (hidden={cfg.hidden}) on {len(train_ds)} sequences ...")
    cell, _ = train(cfg, train_ds, test_ds,
                    on_epoch=lambda e, c, r: print(
                        f"  epoch {r.epoch:3d} loss {r.loss:.5f} acc {r.accuracy:.4f}"))
    print(f"test accuracy: {accuracy(cell, test_ds, 'mnist'):.4f} (chance is 0.1)")
    print(f"\n{'gate':<12}{'rho':>10}{'norm':>10}{'henrici':>10}")
    for gate, w in extract_recurrent_matrices(cell):
        rep = build_matrix_report(gate, w)
        print(f"{gate:<12}{rep.spectral_radius:>10.4f}{rep.spectral_norm:>10.4f}{rep.henrici:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
