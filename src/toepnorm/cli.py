"""Command-line front end: weight classification, identity checks and
essential-norm tables, emitted as CSV or JSON.

Each subcommand reads its settings from its own flags, which carry the
defaults.  The range checks on those flags (every coefficient, angle and
exponent finite, p > 1, every size positive, a symbol not identically
zero and with its squares inside the floating-point range, N and the
grid a power of two >= 2 when a weight is given, verify-identity's N
above the symbol's shift order and at least one weight, essnorm's m at
most N/4 and its packets inside the section) are made here, so a bad
value is a configuration error that names its flag even where no library
call would see it.

Exit codes: 0 pass, 1 verification failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import acceptance
from .estimation import BracketParams, essential_bracket
from .operators import csa_decompose, symbol_sup
from .spectral import CoeffVector, IndexWindow
from .weights import OuterPairError, PowerWeight, khvedelidze_ap_check

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# glibc's mallopt parameters and its cap on the dynamic mmap threshold on
# 64-bit (DEFAULT_MMAP_THRESHOLD_MAX); the trim threshold is twice it, the
# ratio glibc's dynamic rule keeps
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD

# the smallest subnormal double and the unit roundoff
_ETA = math.ldexp(1.0, -1074)
_U = math.ldexp(1.0, -53)


def _pairs(text: str, what: str, key, value) -> list:
    """Parse 'k:v[,k:v...]' into (key(k), value(v)) pairs, each finite."""
    pairs = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        k, _, v = part.partition(":")
        try:
            pair = key(k), value(v)
            for raw, x in zip((k, v), pair):
                if not cmath.isfinite(x):
                    raise ValueError(f"{raw.strip()!r} is not finite")
            pairs.append(pair)
        except ValueError as exc:
            raise ValueError(f"bad {what} {part!r}: {exc}") from exc
    return pairs


def parse_symbol(text: str) -> CoeffVector:
    """Parse 'idx:coeff[,idx:coeff...]', e.g. '-1:1,2:0.5' or '0:1+2j'."""
    terms = {}
    for idx, val in _pairs(text, "--symbol term", int, complex):
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
    return PowerWeight(tuple(_pairs(text, "--weight point", float, float)))


def _symbol(args) -> CoeffVector:
    if not args.symbol:
        raise ValueError(f"{args.command} requires a symbol")
    a = parse_symbol(args.symbol)
    if not np.any(a.coeffs):
        raise ValueError("symbol must not be zero")
    return a


def _check_sizes(args, grid_flag: str, *flags: str) -> None:
    # every size is positive; a weight's grids (--grid and 2 --grid points,
    # or 8N and 16N for outer pairs) follow the library's grid convention,
    # a power of two >= 2 (spectral._grid_size), checked here to name the flag
    for flag in (grid_flag, *flags):
        if getattr(args, flag) <= 0:
            raise ValueError(f"--{flag} must be positive")
    size = getattr(args, grid_flag)
    if args.weight and (size < 2 or size & (size - 1)):
        raise ValueError(f"--{grid_flag} must be a power of two >= 2 when a "
                         "--weight is given")


def _check_symbol_scale(a: CoeffVector, N: int, m: int,
                        lower: float) -> None:
    """Refuse a symbol whose squares leave the floating-point range of the
    sums a subcommand forms: F = ||T_N(a)[:, m:]||_F^2 must lie in
    [lower, Omega], Omega the largest double.

    F is taken as s^2 times the count-weighted sum of |a_k / s|^2,
    s = max |a_k|, with diagonal k holding max(0, min(N, N - k) -
    max(m, -k)) entries of the block, so no coefficient is squared.  A
    square below the smallest normal double is rounded to a multiple of
    eta = 2^-1074, an absolute error of at most eta / 2 per real square.

    verify-identity (m = 0, N = S for both sizes S in {N, 2N}) reads the
    residual rho = ||D||_F / ||T_S||_F, D = C - T - K0, each norm NumPy's
    unscaled root of a sum of squares.  Top end: F = ||T_S||_F^2 <= Omega,
    and a row with rho <= 1 has ||D||_F^2 <= F, so no passing row
    overflows.  Bottom end: the S^2 complex entries of D add at most S^2 eta
    to ||D||_F^2, a relative error of at most S^2 eta / (2 rho^2 F) in rho.
    At the clause's bound rho = 1e-6 that must not exceed the rounding the
    residual already carries there, the floor 1e-12 of ``identity_clauses``
    (1e-6 relative): F >= 5e17 S^2 eta.  A residual above 1e-6 then reads
    as passing only within that floor.

    essnorm reads the block B = T_N(a)[:, m:], K = N - m columns, through
    its Gram matrix G = B^H B (dense or banded) and the packet norms ||B u||.
    Top end: every entry and eigenvalue of G is at most tr G = F <= Omega.
    Bottom end: an entry of G sums at most N products, each carrying at most
    2 eta from its rounded real products, so the rounding of subnormal
    products perturbs G by at most 2 K N eta in the 2-norm; against
    lambda_max(G) >= tr G / K = F / K that is at most u = 2^-53 relative,
    the accuracy of the eigenvalue itself, when F >= 2 K^2 N eta / u; a
    packet norm's N squares err by at most N eta, less again.  A weighted
    block is B conjugated by the outer pair, on the same scale (its
    sigma_max tends to the same limit); the range is taken on B.
    """
    s = float(np.max(np.abs(a.coeffs)))
    k = a.window.indices()
    count = np.clip(np.minimum(N, N - k) - np.maximum(m, -k), 0, None)
    q = float(count @ (np.abs(a.coeffs) / s) ** 2)
    if q == 0.0:  # the block holds no coefficient, so it forms no square
        return
    lg = 2.0 * math.log10(s) + math.log10(q)
    if not math.log10(lower) <= lg <= math.log10(sys.float_info.max):
        raise ValueError(
            f"--symbol must keep its squares in the floating-point range: "
            f"the section's squared Frobenius norm is 10^{lg:.1f}, outside "
            f"[{lower:.3g}, {sys.float_info.max:.3g}]")


@contextlib.contextmanager
def _naming(pw: PowerWeight):
    # a weight's outer pair is refused deep inside a subcommand; the message
    # names the --weight whose construction failed
    try:
        yield
    except OuterPairError as exc:
        raise ValueError(f"--weight {pw.label()}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _write_table(rows: list, fmt: str, output: str | None,
                 columns: tuple = ()) -> None:
    """Write rows as a CSV or JSON table whose columns are ``columns``
    followed by the rows' other keys, in first-seen order; a row leaves
    the cells of the keys it lacks empty (null in JSON)."""
    columns = list(dict.fromkeys([*columns, *(k for r in rows for k in r)]))
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
    # named for the header that an empty weight list still prints
    _write_table(rows, args.format, args.out,
                 ("weight", "in_ap", "char_M", "char_2M", "growth_ratio"))
    return EXIT_OK


def cmd_verify_identity(args) -> int:
    _check_sizes(args, "N")
    a = _symbol(args)
    n, h = csa_decompose(a)
    if args.N <= n:  # the N x N section of T(e_{-n} h) would be all zero
        raise ValueError(f"--N must exceed the symbol's shift order n = {n}")
    if not args.weight:  # an empty table would read as a pass
        raise ValueError("verify-identity requires a --weight")
    for size in (args.N, 2 * args.N):
        _check_symbol_scale(a, size, 0, 5e17 * size ** 2 * _ETA)
    rows = []
    for pw in [parse_weight(w) for w in args.weight]:
        with _naming(pw):
            cells = acceptance.identity_clauses(n, h, pw, args.N)[0]
        del cells["rank_ratio"]  # the table reports k0_rank alone
        rows.append({"weight": pw.label(), "n": n, **cells})
    _write_table(rows, args.format, args.out)
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
    K = args.N - args.m
    _check_symbol_scale(a, args.N, args.m, 2 * K ** 2 * args.N * _ETA / _U)
    weights = [parse_weight(w) for w in args.weight]
    params = BracketParams(N=args.N, m=args.m, L=args.L, thetas=args.thetas)
    sup = symbol_sup(a)
    # the first row is the unweighted bracket, at deviation 0 from itself
    ests = [essential_bracket(a, None, params)]
    for pw in weights:
        with _naming(pw):
            ests.append(acceptance.weighted_bracket(a, pw, params, ests[0]))
    rows = [{"weight": label, "lower": est.lower, "upper": est.upper,
             "grid_sup": sup,
             "rel_dev_from_gridsup": abs(est.upper - sup) / sup,
             "rel_dev_from_unweighted": abs(est.upper - ests[0].upper) / sup}
            for label, est in zip(["1"] + [pw.label() for pw in weights],
                                  ests)]
    rows.append({"weight": "max_cross_weight_deviation",
                 "rel_dev_from_unweighted":
                     max(row["rel_dev_from_unweighted"] for row in rows)})
    _write_table(rows, args.format, args.out)
    return EXIT_OK


def write_tables(results: dict, out_dir: str) -> None:
    """Write the four CSV tables of ``reproduce`` into ``out_dir`` from the
    verification suite's results, keyed by criterion name."""
    essnorm = [{"check": "bracket", **r}
               for r in results["unweighted_bracket"].rows]
    essnorm += [{"check": "independence", **r}
                for r in results["weight_independence"].rows]
    for name, rows in (("ap_check", results["ap_classification"].rows),
                       ("identity", results["conjugation_identity"].rows),
                       ("essnorm", essnorm),
                       ("outer_validation", results["outer_validation"].rows)):
        _write_table(rows, "csv", os.path.join(out_dir, f"{name}.csv"))


def cmd_reproduce(args) -> int:
    # an unwritable directory fails before the suite runs, not after it
    os.makedirs(args.out_dir, exist_ok=True)
    probe = os.path.join(args.out_dir, ".write_probe")
    with open(probe, "w") as fh:
        fh.write("")
    os.remove(probe)

    results = {r.name: r for r in acceptance.run_all()}
    write_tables(results, args.out_dir)

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
    for field in dataclasses.fields(BracketParams):
        sp.add_argument(f"--{field.name}", type=int, default=field.default)

    sp = sub.add_parser("reproduce",
                        help="run the full verification suite, write tables")
    sp.add_argument("out_dir", help="output directory for the CSV tables")
    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Let the process keep the 1-8 MB section buffers it frees.

    glibc's dynamic rule serves such a buffer by mmap or trims it back to
    the kernel on free, so the next product of the same size faults every
    page in again.  Both thresholds are set, at the values that rule stops
    at: setting either one alone turns the rule off and leaves the other
    at its 128 KiB default, which faults more than the rule does.  Where
    libc has no ``mallopt`` (macOS, Windows) nothing is changed; no printed
    number depends on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _build_parser().parse_args(argv)
    handler = {"ap-check": cmd_ap_check,
               "verify-identity": cmd_verify_identity,
               "essnorm": cmd_essnorm,
               "reproduce": cmd_reproduce}[args.command]
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
