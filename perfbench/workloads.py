"""The three benchmark workloads: seeded inputs, one timed case, its checks.

Every case is a user-level call into toepnorm at the sizes of the
verification suite.  ``run`` holds only program calls and is what gets
timed; ``check`` validates the outputs afterwards, outside the program and
outside the timed region.  Case ``i`` draws its inputs from its own seeded
stream, so the inputs of a case do not depend on how many cases ran before;
the warm-up case is case -1.

Each case is one or more operations.  ``check`` returns one outcome per
operation: ``"ok"``, ``"known_defect"`` (the outer-pair defect described
in README.md, verified to be exactly that) or a failure reason.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math

import numpy as np

from toepnorm import cli, weights
from toepnorm.spectral import IndexWindow

# Sizes of the verification suite, and tiny ones for the harness self-test.
SIZES = {
    "full": {"identity": {"N": 128},
             "essnorm": {"N": 1024},
             "weights": {"grid": 512, "window": 2048}},
    "tiny": {"identity": {"N": 16},
             "essnorm": {"N": 256},
             "weights": {"grid": 64, "window": 128}},
}

OUTER_DEFECT = "leading outer coefficient must be real positive"


def _call_cli(argv):
    """Run ``toepnorm`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _weight_arg(points):
    return ",".join(f"{a!r}:{lam!r}" for a, lam in points)


class Identity:
    """``verify-identity`` for a seeded e_{-n} h against |t-1|^(+-lambda)."""

    name = "identity"
    known_defect = None

    def __init__(self, seed, sizes):
        self.seed = seed
        self.N = sizes["N"]

    def case(self, i):
        rng = np.random.default_rng([self.seed, i + 1])
        n = 1 + i % 3
        h = (rng.standard_normal(5) + 1j * rng.standard_normal(5)) / math.sqrt(2)
        # The suite's exponent is 0.3.  The N=128 residual grows with lambda
        # (outer windows are fixed at 4N) and crosses 1e-6 near 0.37.
        lam = float(rng.uniform(0.1, 0.3))
        symbol = ",".join(f"{k - n}:{complex(c)}" for k, c in enumerate(h))
        return {"n": n, "argv": ["verify-identity", f"--symbol={symbol}",
                                 "--weight", _weight_arg([(0.0, lam)]),
                                 "--weight", _weight_arg([(0.0, -lam)]),
                                 "--N", str(self.N)]}

    def run(self, case):
        return _call_cli(case["argv"])

    def check(self, case, output):
        code, text, err = output
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        rows = _rows(text)
        if len(rows) != 2:
            return [f"expected 2 rows, got {len(rows)}"]
        bad = [r["weight"] for r in rows
               if r["pass"] != "true" or int(r["n"]) != case["n"]]
        return [f"rows not passing: {bad}" if bad else "ok"]


class Essnorm:
    """``essnorm`` at N=1024: a seeded real symbol against one of four
    seeded weights with points at +-1, one of them |t-1|^0."""

    name = "essnorm"
    known_defect = None

    def __init__(self, seed, sizes):
        self.seed = seed
        self.N = sizes["N"]
        rng = np.random.default_rng([self.seed, 1 << 30])
        self.weights = [
            [(0.0, 0.0)],
            [(0.0, float(rng.uniform(-0.4, -0.1)))],
            [(0.0, float(rng.uniform(0.1, 0.4)))],
            [(0.0, float(rng.uniform(0.1, 0.4))),
             (math.pi, float(rng.uniform(-0.4, -0.1)))],
        ]

    def case(self, i):
        rng = np.random.default_rng([self.seed, i + 1])
        n = int(rng.integers(1, 4))
        terms = {-n: float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0))}
        for k in rng.choice(4, size=int(rng.integers(1, 3)), replace=False):
            terms[int(k)] = float(rng.uniform(-0.6, 0.6))
        points = self.weights[i % len(self.weights)]
        symbol = ",".join(f"{k}:{v!r}" for k, v in sorted(terms.items()))
        return {"terms": terms, "points": points,
                "argv": ["essnorm", f"--symbol={symbol}",
                         "--weight", _weight_arg(points), "--N", str(self.N)]}

    def run(self, case):
        return _call_cli(case["argv"])

    def check(self, case, output):
        code, text, err = output
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        rows = _rows(text)
        if len(rows) != 3 or rows[0]["weight"] != "1":
            return [f"unexpected table: {text!r}"]
        brackets = [{k: float(r[k]) for k in ("lower", "upper", "grid_sup")}
                    for r in rows[:2]]
        for b in brackets:
            if not b["lower"] <= b["upper"]:
                return [f"lower {b['lower']!r} > upper {b['upper']!r}"]
            if not b["upper"] - b["lower"] <= 0.04 * b["grid_sup"]:
                return [f"width {b['upper'] - b['lower']!r} above 4% of sup"]
        up0, upw = brackets[0]["upper"], brackets[1]["upper"]
        if all(lam == 0.0 for _, lam in case["points"]):
            return ["ok" if upw == up0 else
                    f"trivial weight changed upper: {upw!r} != {up0!r}"]
        # Weighted minus unweighted column-zeroed section is the Toeplitz
        # section of a (W W^-1 - 1), so by Weyl and the l1 bound on Toeplitz
        # norms |upw - up0| <= ||a||_l1 ||W W^-1 - 1||_l1.  The section only
        # reaches coefficients below N + n_neg, inside the outer window, so
        # the l1 norm is taken there.  W is rebuilt as the CLI builds it.
        n_neg = max(0, -min(case["terms"]))
        W = weights.outer_pair(
            weights.sample_power_weight(weights.PowerWeight(tuple(case["points"])),
                                        8 * self.N),
            IndexWindow(0, self.N + n_neg + 15))
        wc, wic = W.w_coeffs.coeffs, W.winv_coeffs.coeffs
        defect = np.convolve(wc, wic)[:len(wc)]
        defect[0] -= 1.0
        cert = (sum(abs(v) for v in case["terms"].values())
                * float(np.sum(np.abs(defect))))
        if not abs(upw - up0) <= cert:
            return [f"weighted upper off by {abs(upw - up0)!r}, "
                    f"certificate {cert!r}"]
        return ["ok"]


class Weights:
    """``ap-check`` at grid 512 plus the three outer-pair constructions at
    window 2048 for a seeded power weight with 1-2 points at any angle."""

    name = "weights"
    known_defect = (f"outer_pair and outer_pair_refined raise '{OUTER_DEFECT}'"
                    " for a power weight with a point off +-1")

    def __init__(self, seed, sizes):
        self.seed = seed
        self.grid = sizes["grid"]
        self.window = sizes["window"]

    def case(self, i):
        rng = np.random.default_rng([self.seed, i + 1])
        k = int(rng.integers(1, 3))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=k)
        exps = rng.uniform(-0.6, 0.9, size=k)
        points = [(float(a), float(e)) for a, e in zip(angles, exps)]
        p = float(rng.choice([2.0, 4.0]))
        return {"points": points, "p": p,
                "argv": ["ap-check", "--weight", _weight_arg(points),
                         "--p", repr(p), "--grid", str(self.grid)]}

    def run(self, case):
        pw = weights.PowerWeight(tuple(case["points"]))
        win = IndexWindow(0, self.window - 1)
        out = {"ap": _call_cli(case["argv"])}
        constructions = {
            "exact": lambda: weights.outer_pair_exact(pw, win),
            "refined": lambda: weights.outer_pair_refined(pw, 2 * self.window,
                                                          win),
            "grid": lambda: weights.outer_pair(
                weights.sample_power_weight(pw, 2 * self.window), win),
        }
        for key, build in constructions.items():
            try:
                out[key] = build()
            except ValueError as exc:
                # keep the text only: the exception's traceback would hold
                # this frame in a reference cycle until the next collection
                out[key] = f"ValueError: {exc}"
        return out

    def _check_ap(self, case, output):
        code, text, err = output
        if code != 0:
            return f"ap-check exit code {code}: {err.strip()}"
        rows = _rows(text)
        if len(rows) != 1:
            return f"ap-check: expected 1 row, got {len(rows)}"
        row = rows[0]
        p = case["p"]
        in_ap = all(-1.0 / p < lam < 1.0 - 1.0 / p for _, lam in case["points"])
        if row["in_ap"] != ("true" if in_ap else "false"):
            return f"ap-check verdict {row['in_ap']} for {case['points']}"
        # Hoelder: (avg w^p)^(1/p) (avg w^-p')^(1/p') >= avg(w w^-1) = 1
        for col in ("char_M", "char_2M"):
            if not float(row[col]) >= 1.0:
                return f"ap-check {col} = {row[col]} below 1"
        return "ok"

    def _check_construction(self, case, pair):
        if not isinstance(pair, str):
            return "ok"
        off_pm1 = any(min(a % math.pi, math.pi - a % math.pi) > 0.0
                      for a, _ in case["points"])
        if off_pm1 and pair == f"ValueError: {OUTER_DEFECT}":
            return "known_defect"
        return pair

    def check(self, case, output):
        outcomes = [self._check_ap(case, output["ap"])]
        exact = output["exact"]
        if isinstance(exact, str):
            outcomes.append(f"outer_pair_exact raised {exact}")
        else:
            wc, wic = exact.w_coeffs.coeffs, exact.winv_coeffs.coeffs
            prod = np.convolve(wc, wic)[:len(wc)]
            prod[0] -= 1.0
            defect = float(np.max(np.abs(prod)))
            outcomes.append("ok" if defect <= 1e-8 else
                            f"exact reciprocal defect {defect!r} above 1e-8")
        outcomes += [self._check_construction(case, output[key])
                     for key in ("refined", "grid")]
        return outcomes


WORKLOADS = {w.name: w for w in (Identity, Essnorm, Weights)}
