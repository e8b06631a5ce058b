#!/usr/bin/env python3
"""Growth of the arc-scan Muckenhoupt characteristic under grid refinement.

Scans a lattice of exponents and integrability indices and reports the
characteristic at a sequence of grid doublings together with per-doubling
growth ratios.  Divergence (weight outside A_p) shows up as sustained
growth; the closed-form verdict is printed alongside.
"""

import argparse
import sys

from toepnorm import khvedelidze_ap_check
from toepnorm.acceptance import ap_characteristics
from toepnorm.weights import PowerWeight


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exponents", default="-0.6,-0.45,0,0.45,0.55,0.9",
                    help="comma-separated weight exponents at angle 0")
    ap.add_argument("--p", default="2,4", help="comma-separated p values")
    ap.add_argument("--grids", default="256,512,1024",
                    help="comma-separated grid sizes (powers of two)")
    args = ap.parse_args()

    lams = [float(s) for s in args.exponents.split(",")]
    ps = [float(s) for s in args.p.split(",")]
    grids = tuple(int(s) for s in args.grids.split(","))

    header = ["p", "lambda", "in_ap"] + [f"char_{M}" for M in grids] + \
             [f"growth_{a}_{b}" for a, b in zip(grids, grids[1:])]
    print(",".join(header))
    for p in ps:
        for lam in lams:
            pw = PowerWeight(((0.0, lam),))
            chars, growth = ap_characteristics(pw, p, grids)
            row = [f"{p:g}", f"{lam:g}", str(khvedelidze_ap_check(pw, p)).lower()]
            row += [f"{c:.17g}" for c in chars]
            row += [f"{g:.17g}" for g in growth]
            print(",".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
