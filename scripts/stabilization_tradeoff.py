#!/usr/bin/env python3
"""Stability-vs-robustness demo: rescaling tames the spectrum, not the shape.

Takes a matrix (file, or a random non-normal one), applies the
power-iteration rescale, and contrasts the two pseudospectra: spectral
radius drops to <= 1 while the Henrici number and the *relative* spread of
the pseudospectrum around the eigenvalues are unchanged -- the rescaled
matrix sits closer to the unit circle, so the same eps-perturbation now
reaches instability more easily.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from specto import (
    Matrix,
    StabilizerConfig,
    auto_grid,
    compare_svg,
    compute_field,
    extract_contours,
    henrici_number,
    load_matrix_any,
    spectral_radius,
    stabilize,
    two_norm,
)
from specto.cli import DEFAULT_EPS_LEVELS


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("matrix", nargs="?", help="matrix file (.pspc or CSV); random if omitted")
    ap.add_argument("--out", default="tradeoff-results")
    ap.add_argument("--n", type=int, default=24, help="size of the random matrix")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--m", type=int, default=200, help="power iterations")
    ap.add_argument("--nx", type=int, default=150)
    return ap.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.matrix:
        w, name = load_matrix_any(args.matrix)
    else:
        rng = np.random.default_rng(args.seed)
        # upper-triangular excess makes the example visibly non-normal
        a = rng.standard_normal((args.n, args.n)) / np.sqrt(args.n)
        a += np.triu(rng.standard_normal((args.n, args.n)), 1) * 0.6
        w, name = Matrix(a * 1.4), "random-nonnormal"

    result = stabilize(w, StabilizerConfig(m=args.m, seed=args.seed))
    w_s = result.w_s
    print(f"{name}: gain estimate {result.gain_estimate:.6f}")
    print(f"{'':14}{'rho':>10}{'norm':>10}{'henrici':>10}")
    for tag, m in (("trained", w), ("stabilized", w_s)):
        print(f"{tag:<14}{spectral_radius(m):>10.4f}{two_norm(m):>10.4f}{henrici_number(m):>10.4f}")

    eps = list(DEFAULT_EPS_LEVELS)
    grid = auto_grid(w, w_s, pad=0.5, nx=args.nx, ny=args.nx)
    fields = [compute_field(m, grid) for m in (w, w_s)]
    contours = [extract_contours(f, eps) for f in fields]

    print(f"\n{'eps':>10}{'nodes before':>14}{'nodes after':>13}   (grid nodes with sigma_min <= eps)")
    for k, e in enumerate(eps):
        nb = int((fields[0].values <= e).sum())
        na = int((fields[1].values <= e).sum())
        print(f"{e:>10.4g}{nb:>14}{na:>13}")

    svg = compare_svg((f"{name} (trained)", fields[0].eigenvalues, contours[0]),
                      (f"{name} (stabilized)", fields[1].eigenvalues, contours[1]), grid)
    (out / "tradeoff.svg").write_text(svg, encoding="utf-8")
    print(f"\nside-by-side portrait written to {out}/tradeoff.svg")
    return 0


if __name__ == "__main__":
    sys.exit(main())
