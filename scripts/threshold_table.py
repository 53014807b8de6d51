#!/usr/bin/env python3
"""Tabulate the reality-domain edge alpha(N) for a range of matrix sizes.

The edge shrinks quickly as the lattice grows; this prints one row per size
with the located critical coupling and the number of exceptional points
below a fixed coupling ceiling, (N - n_real)/2 at that ceiling.

Usage: python3 scripts/threshold_table.py [--z Z] [--n-max N] [--tol TOL]
"""

import argparse

from ptcoulomb import build_coulomb_hamiltonian, critical_coupling, reality_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--z", type=float, default=-1.0, help="potential exponent")
    ap.add_argument("--n-max", type=int, default=12, help="largest matrix size")
    ap.add_argument("--tol", type=float, default=1e-7, help="tolerance of alpha(N)")
    args = ap.parse_args()

    print(f"{'N':>4} {'alpha(N)':>14} {'n_exceptional':>14}")
    for n in range(2, args.n_max + 1, 2):
        alpha = critical_coupling(n, args.z, args.tol)
        n_real = reality_report(build_coulomb_hamiltonian(n, 3.0, args.z)).n_real
        print(f"{n:>4} {alpha:>14.8f} {(n - n_real) // 2:>14}")


if __name__ == "__main__":
    main()
