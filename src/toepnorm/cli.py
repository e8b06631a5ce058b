"""Command-line front end: weight classification, identity checks and
essential-norm tables, emitted as CSV or JSON.

Exit codes: 0 pass, 1 verification failure, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

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


@dataclass
class ExperimentConfig:
    symbol: CoeffVector | None = None
    weights: list = field(default_factory=list)
    p: float = 2.0
    grid: int = 256
    section: int | None = None
    tail: int = 64
    packet: int = 64
    thetas: int = 256
    output: str | None = None
    format: str = "csv"

    def validate(self):
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        for name in ("grid", "tail", "packet", "thetas"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.section is not None and self.section <= 0:
            raise ValueError("section must be positive")


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


def _load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    cfg = ExperimentConfig()
    if "symbol" in raw:
        cfg.symbol = CoeffVector.from_json_dict(raw["symbol"])
    if "weights" in raw:
        cfg.weights = [PowerWeight.from_json_dict(w) for w in raw["weights"]]
    for key in ("p", "grid", "section", "tail", "packet", "thetas",
                "output", "format"):
        if key in raw:
            setattr(cfg, key, raw[key])
    return cfg


def _merge_flags(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "symbol", None):
        cfg.symbol = parse_symbol(args.symbol)
    if getattr(args, "weight", None):
        cfg.weights = [parse_weight(w) for w in args.weight]
    for flag, attr in (("p", "p"), ("grid", "grid"), ("N", "section"),
                       ("m", "tail"), ("L", "packet"), ("thetas", "thetas"),
                       ("out", "output"), ("format", "format")):
        val = getattr(args, flag, None)
        if val is not None:
            setattr(cfg, attr, val)
    cfg.validate()
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    return str(value)


def _write_table(rows: list, columns: list, cfg_format: str,
                 output: str | None) -> None:
    if cfg_format == "csv":
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


def cmd_ap_check(cfg: ExperimentConfig) -> int:
    rows = []
    M = cfg.grid
    for pw in cfg.weights:
        verdict = khvedelidze_ap_check(pw, cfg.p)
        c1, c2 = acceptance.ap_characteristics(pw, cfg.p, (M, 2 * M))
        rows.append({"weight": pw.label(), "in_ap": verdict,
                     "char_M": c1, "char_2M": c2,
                     "growth_ratio": c2 / c1 - 1.0})
    _write_table(rows, ["weight", "in_ap", "char_M", "char_2M", "growth_ratio"],
                 cfg.format, cfg.output)
    return EXIT_OK


def cmd_verify_identity(cfg: ExperimentConfig) -> int:
    if cfg.symbol is None:
        raise ValueError("verify-identity requires a symbol")
    n, h = csa_decompose(cfg.symbol)
    N = cfg.section or 128
    rows = []
    all_pass = True
    for pw in cfg.weights:
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
                 cfg.format, cfg.output)
    return EXIT_OK if all_pass else EXIT_VERIFICATION


def cmd_essnorm(cfg: ExperimentConfig) -> int:
    if cfg.symbol is None:
        raise ValueError("essnorm requires a symbol")
    if cfg.p != 2:
        raise ValueError("essnorm computes on H^2 only: p must be 2")
    N = cfg.section or 1024
    params = BracketParams(N=N, m=cfg.tail, L=cfg.packet, thetas=cfg.thetas)
    sup = symbol_sup(cfg.symbol)
    est0, ests = acceptance.weighted_brackets(cfg.symbol, cfg.weights, params)
    rows = [{"weight": "1", "lower": est0.lower, "upper": est0.upper,
             "grid_sup": sup,
             "rel_dev_from_gridsup": abs(est0.upper - sup) / sup,
             "rel_dev_from_unweighted": 0.0}]
    max_dev = 0.0
    for pw, est in zip(cfg.weights, ests):
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
                 cfg.format, cfg.output)
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
        sp.add_argument("--config", help="JSON config file")
        if symbol:
            sp.add_argument("--symbol",
                            help="Laurent symbol, 'idx:coeff[,idx:coeff...]'")
        sp.add_argument("--weight", action="append",
                        help="power weight, 'angle:exp[,angle:exp...]' "
                             "(repeatable)")
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("ap-check", help="Muckenhoupt classification report")
    common(sp)
    sp.add_argument("--p", type=float)
    sp.add_argument("--grid", type=int, help="weight grid size M")

    sp = sub.add_parser("verify-identity",
                        help="conjugation identity and finite-rank check")
    common(sp, symbol=True)
    sp.add_argument("--N", type=int)

    sp = sub.add_parser("essnorm", help="essential-norm bracket table")
    common(sp, symbol=True)
    sp.add_argument("--N", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--L", type=int)
    sp.add_argument("--thetas", type=int)

    sp = sub.add_parser("reproduce",
                        help="run the full verification suite, write tables")
    sp.add_argument("out_dir", help="output directory for the CSV tables")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "reproduce":
        return cmd_reproduce(args.out_dir)
    try:
        cfg = _load_config(args.config) if args.config else ExperimentConfig()
        cfg = _merge_flags(cfg, args)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handler = {"ap-check": cmd_ap_check,
               "verify-identity": cmd_verify_identity,
               "essnorm": cmd_essnorm}[args.command]
    try:
        return handler(cfg)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
