"""Command-line front end: weight classification, identity checks and
essential-norm tables, emitted as CSV or JSON.

Each subcommand reads its settings from its own flags, which carry the
defaults.  The range checks on those flags (p > 1, every size positive,
a symbol not identically zero, N a power of two when a weight is given)
are made here, so a bad value is a configuration error that names its flag
even where no library call would see it.

Exit codes: 0 pass, 1 verification failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import acceptance
from .estimation import BracketParams
from .operators import csa_decompose, symbol_sup
from .spectral import CoeffVector, IndexWindow
from .weights import PowerWeight, khvedelidze_ap_check

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def parse_symbol(text: str) -> CoeffVector:
    """Parse 'idx:coeff[,idx:coeff...]', e.g. '-1:1,2:0.5' or '0:1+2j'."""
    terms = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        idx_s, _, coeff_s = part.partition(":")
        try:
            idx = int(idx_s)
            val = complex(coeff_s)
        except ValueError as exc:
            raise ValueError(f"bad symbol term {part!r}: {exc}") from exc
        terms[idx] = terms.get(idx, 0.0) + val
    if not terms:
        raise ValueError("symbol has no terms")
    lo, hi = min(terms), max(terms)
    coeffs = np.zeros(hi - lo + 1, dtype=complex)
    for k, v in terms.items():
        coeffs[k - lo] = v
    return CoeffVector(IndexWindow(lo, hi), coeffs)


def parse_weight(text: str) -> PowerWeight:
    """Parse 'angle:exp[,angle:exp...]' with angles in radians."""
    points = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        ang_s, _, exp_s = part.partition(":")
        try:
            points.append((float(ang_s), float(exp_s)))
        except ValueError as exc:
            raise ValueError(f"bad weight point {part!r}: {exc}") from exc
    return PowerWeight(tuple(points))


def _symbol(args) -> CoeffVector:
    if not args.symbol:
        raise ValueError(f"{args.command} requires a symbol")
    a = parse_symbol(args.symbol)
    if not np.any(a.coeffs):
        raise ValueError("symbol must not be zero")
    return a


def _check_positive(args, *flags) -> None:
    for flag in flags:
        if getattr(args, flag) <= 0:
            raise ValueError(f"--{flag} must be positive")


def _check_weighted_N(args) -> None:
    # each weight's outer pair is sampled on a grid of 8N (verify-identity
    # also 16N) points, and the grid FFTs need a power of two
    if args.weight and args.N & (args.N - 1):
        raise ValueError("--N must be a power of two when a --weight is given")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _write_table(rows: list, columns: list, fmt: str,
                 output: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{c: row.get(c) for c in columns} for row in rows],
                          indent=2, default=float) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_ap_check(args) -> int:
    if not args.p > 1:
        raise ValueError("p must exceed 1")
    _check_positive(args, "grid")
    weights = [parse_weight(w) for w in args.weight]
    rows = []
    M = args.grid
    for pw in weights:
        verdict = khvedelidze_ap_check(pw, args.p)
        c1, c2 = acceptance.ap_characteristics(pw, args.p, (M, 2 * M))
        rows.append({"weight": pw.label(), "in_ap": verdict,
                     "char_M": c1, "char_2M": c2,
                     "growth_ratio": c2 / c1 - 1.0})
    _write_table(rows, ["weight", "in_ap", "char_M", "char_2M", "growth_ratio"],
                 args.format, args.out)
    return EXIT_OK


def cmd_verify_identity(args) -> int:
    _check_positive(args, "N")
    _check_weighted_N(args)
    n, h = csa_decompose(_symbol(args))
    weights = [parse_weight(w) for w in args.weight]
    N = args.N
    rows = []
    all_pass = True
    for pw in weights:
        res = {}
        rank = 0
        for size in (N, 2 * N):
            res[size], sv = acceptance.identity_residual(n, h, pw, size)
            rank = max(rank, int(np.sum(sv > 1e-8 * max(sv[0], 1e-300))))
        decreasing = res[2 * N] < res[N]
        # below rounding level there is no truncation error left to decay
        trend_ok = decreasing or res[2 * N] <= 1e-12
        ok = res[N] <= 1e-6 and trend_ok and rank <= n
        all_pass &= ok
        rows.append({"weight": pw.label(), "n": n,
                     "residual_N": res[N], "residual_2N": res[2 * N],
                     "decreasing": decreasing, "k0_rank": rank, "pass": ok})
    _write_table(rows, ["weight", "n", "residual_N", "residual_2N",
                        "decreasing", "k0_rank", "pass"],
                 args.format, args.out)
    return EXIT_OK if all_pass else EXIT_VERIFICATION


def cmd_essnorm(args) -> int:
    _check_positive(args, "N", "m", "L", "thetas")
    _check_weighted_N(args)
    a = _symbol(args)
    weights = [parse_weight(w) for w in args.weight]
    params = BracketParams(N=args.N, m=args.m, L=args.L, thetas=args.thetas)
    sup = symbol_sup(a)
    est0, ests = acceptance.weighted_brackets(a, weights, params)
    rows = [{"weight": "1", "lower": est0.lower, "upper": est0.upper,
             "grid_sup": sup,
             "rel_dev_from_gridsup": abs(est0.upper - sup) / sup,
             "rel_dev_from_unweighted": 0.0}]
    max_dev = 0.0
    for pw, est in zip(weights, ests):
        dev = abs(est.upper - est0.upper) / sup
        max_dev = max(max_dev, dev)
        rows.append({"weight": pw.label(), "lower": est.lower,
                     "upper": est.upper, "grid_sup": sup,
                     "rel_dev_from_gridsup": abs(est.upper - sup) / sup,
                     "rel_dev_from_unweighted": dev})
    rows.append({"weight": "max_cross_weight_deviation",
                 "rel_dev_from_unweighted": max_dev})
    _write_table(rows, ["weight", "lower", "upper", "grid_sup",
                        "rel_dev_from_gridsup", "rel_dev_from_unweighted"],
                 args.format, args.out)
    return EXIT_OK


def write_tables(results: dict, out_dir: str) -> None:
    """Write the four CSV tables of ``reproduce`` into ``out_dir`` from the
    verification suite's results, keyed by criterion name."""
    _write_table(results["ap_classification"].rows,
                 ["p", "lambda", "admissible", "char_256", "char_512",
                  "char_1024", "growth_1", "growth_2", "s",
                  "predicted_growth", "signal_agrees"],
                 "csv", os.path.join(out_dir, "ap_check.csv"))
    _write_table(results["conjugation_identity"].rows,
                 ["lambda", "n", "residual_128", "residual_256",
                  "decreasing", "rank_ratio", "pass"],
                 "csv", os.path.join(out_dir, "identity.csv"))
    ess_rows = [{"check": "bracket", **r}
                for r in results["unweighted_bracket"].rows]
    ess_rows += [{"check": "independence", **r}
                 for r in results["weight_independence"].rows]
    _write_table(ess_rows,
                 ["check", "symbol", "lower", "upper",
                  "deficiency_bound", "certified_upper", "grid_sup",
                  "width_frac", "contains_sup", "max_dev_1024",
                  "max_dev_2048", "within_2pct", "shrinks"],
                 "csv", os.path.join(out_dir, "essnorm.csv"))
    outer_rows = (results["outer_validation"].rows
                  + results["theoretical_bounds"].rows)
    _write_table(outer_rows, ["quantity", "value", "threshold", "pass"],
                 "csv", os.path.join(out_dir, "outer_validation.csv"))


def cmd_reproduce(out_dir: str) -> int:
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        print(f"cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO

    results = {r.name: r for r in acceptance.run_all()}
    try:
        write_tables(results, out_dir)
    except OSError as exc:
        print(f"write failure: {exc}", file=sys.stderr)
        return EXIT_IO

    all_pass = True
    for r in results.values():
        for check, ok in r.checks.items():
            status = "pass" if ok else "FAIL"
            print(f"{r.name}.{check}: {status}")
            all_pass &= ok
    return EXIT_OK if all_pass else EXIT_VERIFICATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepnorm",
        description="Toeplitz finite sections, Muckenhoupt weights and "
                    "essential-norm brackets on the unit circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, symbol=False):
        if symbol:
            sp.add_argument("--symbol",
                            help="Laurent symbol, 'idx:coeff[,idx:coeff...]'")
        sp.add_argument("--weight", action="append", default=[],
                        help="power weight, 'angle:exp[,angle:exp...]' "
                             "(repeatable)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("ap-check", help="Muckenhoupt classification report")
    common(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--grid", type=int, default=256, help="weight grid size M")

    sp = sub.add_parser("verify-identity",
                        help="conjugation identity and finite-rank check")
    common(sp, symbol=True)
    sp.add_argument("--N", type=int, default=128)

    sp = sub.add_parser("essnorm", help="essential-norm bracket table")
    common(sp, symbol=True)
    sp.add_argument("--N", type=int, default=1024)
    sp.add_argument("--m", type=int, default=64)
    sp.add_argument("--L", type=int, default=64)
    sp.add_argument("--thetas", type=int, default=256)

    sp = sub.add_parser("reproduce",
                        help="run the full verification suite, write tables")
    sp.add_argument("out_dir", help="output directory for the CSV tables")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "reproduce":
        return cmd_reproduce(args.out_dir)
    handler = {"ap-check": cmd_ap_check,
               "verify-identity": cmd_verify_identity,
               "essnorm": cmd_essnorm}[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
