#!/usr/bin/env python3
"""Adding-task experiment: train a recurrent cell, quantify each gate.

Trains at desk scale by default (10k/1k, hidden 32); --full-scale switches
to the 45k/5k, hidden-128, batch-128 configuration (slow on one core, not
part of CI). After training, prints a per-gate table of spectral radius,
spectral norm, Henrici number and Schur departure, and writes pseudospectrum
portraits for every gate before and after power-iteration stabilization.
"""

import argparse
import sys
from pathlib import Path

from specto import (
    Matrix,
    StabilizerConfig,
    auto_grid,
    build_matrix_report,
    compute_field,
    extract_contours,
    portrait_svg,
    stabilize,
    write_matrix_file,
)
from specto.cli import DEFAULT_EPS_LEVELS
from specto.rnn import TrainConfig, accuracy, adding_splits, extract_recurrent_matrices, train


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="adding-results", help="output directory")
    ap.add_argument("--kind", choices=("rnn", "lstm", "gru"), default="gru")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seq-len", type=int, default=50)
    ap.add_argument("--full-scale", action="store_true",
                    help="45k/5k split, hidden=128, batch=128 (hours on one core)")
    ap.add_argument("--stabilize-m", type=int, default=200,
                    help="power iterations for the post-training rescale")
    ap.add_argument("--nx", type=int, default=150)
    return ap.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.full_scale:
        train_ds, test_ds = adding_splits(45000, 5000, args.seq_len, seed=args.seed)
        cfg = TrainConfig(task="adding", kind=args.kind, hidden=128, batch=128,
                          epochs=args.epochs, learning_rate=0.5, seed=args.seed)
    else:
        train_ds, test_ds = adding_splits(10000, 1000, args.seq_len, seed=args.seed)
        cfg = TrainConfig(task="adding", kind=args.kind, hidden=32, batch=16,
                          epochs=args.epochs, learning_rate=0.5, seed=args.seed,
                          target_accuracy=0.95)

    print(f"training {cfg.kind} (hidden={cfg.hidden}) on {len(train_ds)} sequences ...")
    cell, history = train(cfg, train_ds, test_ds,
                          on_epoch=lambda e, c, r: print(
                              f"  epoch {r.epoch:3d} loss {r.loss:.5f} acc {r.accuracy:.4f}"))
    final_acc = accuracy(cell, test_ds, "adding")
    print(f"test accuracy: {final_acc:.4f}")

    print(f"\n{'gate':<12}{'rho':>10}{'norm':>10}{'henrici':>10}{'departure':>11}")
    eps = list(DEFAULT_EPS_LEVELS)
    for gate, w in extract_recurrent_matrices(cell):
        rep = build_matrix_report(gate, w)
        print(f"{gate:<12}{rep.spectral_radius:>10.4f}{rep.spectral_norm:>10.4f}"
              f"{rep.henrici:>10.4f}{rep.schur_departure:>11.4f}")
        write_matrix_file(out / f"{cfg.kind}-{gate}.pspc", w, name=f"{cfg.kind}-{gate}")

        stabilized = stabilize(w, StabilizerConfig(m=args.stabilize_m, seed=args.seed)).w_s
        for tag, m in (("trained", w), ("stabilized", stabilized)):
            grid = auto_grid(m, pad=0.5, nx=args.nx, ny=args.nx)
            field = compute_field(m, grid)
            contours = extract_contours(field, eps)
            name = f"{cfg.kind}-{gate}-{tag}"
            (out / f"portrait-{name}.svg").write_text(
                portrait_svg(name, field.eigenvalues, grid, contours), encoding="utf-8")
    print(f"\nportraits and weights written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
