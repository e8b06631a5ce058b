#!/usr/bin/env python3
"""Convergence study for the weighted conjugation identity.

For a shifted-analytic symbol e_{-n} h with seeded random h, reports the
Frobenius-relative residual of

    M_W T(e_{-n} h) M_{1/W}  -  T(e_{-n} h)  -  K0

over a sequence of section sizes, together with the rank ratio
sigma_{n+1}/sigma_1 of the K0 section.  The residual is pure
outer-construction error.  It falls with the section size only because the
divisor ||T||_F grows like sqrt(N): the outer grid and window scale with N,
so the absolute error ||C - T - K0||_2 stays flat.
"""

import argparse
import sys

import numpy as np

from toepnorm.acceptance import identity_residual, rank_ratio, seeded_symbol
from toepnorm.weights import PowerWeight


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exponent", type=float, default=0.3)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("--sizes", default="64,128,256,512")
    ap.add_argument("--seed", type=int, default=20240901)
    args = ap.parse_args()

    a = seeded_symbol(np.random.default_rng(args.seed), args.n, args.degree)
    pw = PowerWeight(((0.0, args.exponent),))

    print("N,residual,rank_ratio")
    for N in (int(s) for s in args.sizes.split(",")):
        res, sv = identity_residual(a, pw, N)
        print(f"{N},{res:.17g},{rank_ratio(sv, args.n):.17g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
