"""Command-line front end: weight classification, identity checks and
essential-norm tables, emitted as CSV or JSON.

Each subcommand reads its settings from its own flags, which carry the
defaults.  The range checks on those flags (p > 1, every size positive,
a symbol not identically zero, N and the grid a power of two >= 2 when a
weight is given, verify-identity's N above the symbol's shift order,
essnorm's m at most N/4 and its packets inside the section) are
made here, so a bad value is a configuration error that names its flag
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


def _pairs(text: str, what: str, key, value) -> list:
    """Parse 'k:v[,k:v...]' into (key(k), value(v)) pairs."""
    pairs = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        k, _, v = part.partition(":")
        try:
            pairs.append((key(k), value(v)))
        except ValueError as exc:
            raise ValueError(f"bad {what} {part!r}: {exc}") from exc
    return pairs


def parse_symbol(text: str) -> CoeffVector:
    """Parse 'idx:coeff[,idx:coeff...]', e.g. '-1:1,2:0.5' or '0:1+2j'."""
    terms = {}
    for idx, val in _pairs(text, "symbol term", int, complex):
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
    return PowerWeight(tuple(_pairs(text, "weight point", float, float)))


def _symbol(args) -> CoeffVector:
    if not args.symbol:
        raise ValueError(f"{args.command} requires a symbol")
    a = parse_symbol(args.symbol)
    if not np.any(a.coeffs):
        raise ValueError("symbol must not be zero")
    return a


def _check_sizes(args, grid_flag: str, *flags: str) -> None:
    # every size is positive; a weight's grids (--grid and 2 --grid points,
    # or 8N and 16N for outer pairs) need a power of two for their FFTs
    for flag in (grid_flag, *flags):
        if getattr(args, flag) <= 0:
            raise ValueError(f"--{flag} must be positive")
    size = getattr(args, grid_flag)
    if args.weight and (size < 2 or size & (size - 1)):
        raise ValueError(f"--{grid_flag} must be a power of two >= 2 when a "
                         "--weight is given")


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
    _check_sizes(args, "grid")
    rows = []
    for pw in [parse_weight(w) for w in args.weight]:
        (c1, c2), (growth,) = acceptance.ap_characteristics(
            pw, args.p, (args.grid, 2 * args.grid))
        rows.append({"weight": pw.label(),
                     "in_ap": khvedelidze_ap_check(pw, args.p),
                     "char_M": c1, "char_2M": c2, "growth_ratio": growth})
    _write_table(rows, ["weight", "in_ap", "char_M", "char_2M", "growth_ratio"],
                 args.format, args.out)
    return EXIT_OK


def cmd_verify_identity(args) -> int:
    _check_sizes(args, "N")
    n, h = csa_decompose(_symbol(args))
    if args.N <= n:  # the N x N section of T(e_{-n} h) would be all zero
        raise ValueError(f"--N must exceed the symbol's shift order n = {n}")
    weights = [parse_weight(w) for w in args.weight]
    rows = [{"weight": pw.label(), "n": n,
             **acceptance.identity_clauses(n, h, pw, args.N)[0]}
            for pw in weights]
    _write_table(rows, ["weight", "n", "residual_N", "residual_2N",
                        "decreasing", "k0_rank", "pass"],
                 args.format, args.out)
    return EXIT_OK if all(r["pass"] for r in rows) else EXIT_VERIFICATION


def cmd_essnorm(args) -> int:
    _check_sizes(args, "N", "m", "L", "thetas")
    a = _symbol(args)
    if args.m > args.N // 4:
        raise ValueError(f"--m must be at most N/4 = {args.N // 4}")
    room = args.N - max(0, a.hi)
    if args.m + args.L > room:
        raise ValueError(f"--m + --L must be at most {room} (N less the "
                         "symbol's highest positive frequency) for the wave "
                         "packets to fit the section")
    weights = [parse_weight(w) for w in args.weight]
    params = BracketParams(N=args.N, m=args.m, L=args.L, thetas=args.thetas)
    sup = symbol_sup(a)
    est0, ests, devs = acceptance.weighted_brackets(a, weights, params)
    # the first row is the unweighted bracket, at deviation 0 from itself
    rows = [{"weight": label, "lower": est.lower, "upper": est.upper,
             "grid_sup": sup,
             "rel_dev_from_gridsup": abs(est.upper - sup) / sup,
             "rel_dev_from_unweighted": dev / sup}
            for label, est, dev in zip(["1"] + [pw.label() for pw in weights],
                                       [est0, *ests], [0.0, *devs])]
    rows.append({"weight": "max_cross_weight_deviation",
                 "rel_dev_from_unweighted":
                     max(row["rel_dev_from_unweighted"] for row in rows)})
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
    _write_table(results["outer_validation"].rows,
                 ["quantity", "value", "threshold", "pass"],
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
        for name, check in r.checks.items():
            print(f"{r.name}.{name}: {check}")
            all_pass &= check.passed
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
