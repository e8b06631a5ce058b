"""Verification suite: runs every headline check and reports tables.

Each ``run_*`` function evaluates one family of checks at fixed, documented
parameters and returns a :class:`CriterionResult` with the raw table rows,
named checks (each a :class:`Check`: value, bound and comparison) and wall
time.  The CLI ``reproduce`` command writes the tables to CSV and prints
each check with its value and bound; the test suite asserts the checks.

Random polynomial coefficients come from a fixed seed, so repeated runs on
the same machine with the same BLAS thread count give identical tables.
The identity sections and residual norms are summed in orders fixed by
their shapes (:func:`~toepnorm.operators.conjugated_toeplitz_matrix`,
:func:`identity_residual`), so their rows do not depend on the BLAS thread
count.  The brackets' dense Gram products and reductions run in the BLAS
library, whose summation order can depend on it: the last digits of a
weighted upper end can differ between thread counts.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .estimation import (BracketParams, NormEstimate,
                         compression_deficiency_bound, essential_bracket)
from .operators import (conjugated_toeplitz_matrix, k0_matrix, symbol_sup,
                        toeplitz_matrix)
from .spectral import CoeffVector, IndexWindow
from .weights import (PowerWeight, ap_characteristic, khvedelidze_ap_check,
                      outer_pair, outer_pair_exact, outer_pair_refined,
                      sample_power_weight)

_SEED = 20240901

# Relative float guard for "bracket contains x" comparisons; covers LAPACK
# rounding when an endpoint and x coincide in exact arithmetic.
_CONTAIN_GUARD = 1e-12

@dataclass(frozen=True)
class Check:
    """A measured ``value`` against its ``bound`` under ``op`` ('<', '<='
    or '>='); it passes or fails by the three, so no verdict is stored."""
    value: float
    op: str
    bound: float

    @property
    def passed(self) -> bool:
        v, b = self.value, self.bound
        return bool({"<": v < b, "<=": v <= b, ">=": v >= b}[self.op])

    @property
    def margin(self) -> float:  # negative on the failing side
        return (self.value - self.bound) * (1 if self.op == ">=" else -1)

    def __bool__(self):  # a bare ``assert check`` would always pass
        raise TypeError("a Check has no truth value; read .passed")

    def __str__(self) -> str:
        return (f"{'pass' if self.passed else 'FAIL'} "
                f"({float(self.value)!r} {self.op} {float(self.bound)!r})")


@dataclass
class CriterionResult:
    name: str
    elapsed: float
    rows: list
    checks: dict


def _criterion(gate: float | None = None):
    """Time a sweep returning ``(rows, {name: [Check, ...]})`` into a runner
    of a :class:`CriterionResult` named after it.  Each check is a failing
    member, else the least-margin one (members share their op), so it fails
    iff some member fails; a ``gate`` adds ``runtime_within_<gate>s``."""
    def decorate(sweep):
        @functools.wraps(sweep)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            rows, members = sweep()
            elapsed = time.perf_counter() - t0
            if gate is not None:
                members[f"runtime_within_{gate:g}s"] = [Check(elapsed, "<=",
                                                              gate)]
            return CriterionResult(
                sweep.__name__.removeprefix("run_"), elapsed, rows,
                {name: min(ms, key=lambda c: (c.passed, c.margin))
                 for name, ms in members.items()})
        return run
    return decorate


def _symbol(lo: int, coeffs) -> CoeffVector:
    arr = np.asarray(coeffs, dtype=complex)
    return CoeffVector(IndexWindow(lo, lo + len(arr) - 1), arr)


def bracket_symbols() -> list[tuple[str, CoeffVector]]:
    return [
        ("e_-1", _symbol(-1, [1.0])),
        ("e_-1+0.5e_2", _symbol(-1, [1.0, 0.0, 0.0, 0.5])),
        ("2e_-2+e_1+0.3e_3", _symbol(-2, [2.0, 0.0, 0.0, 1.0, 0.0, 0.3])),
    ]


def independence_weights() -> list[PowerWeight]:
    return [PowerWeight(((0.0, 0.45),)), PowerWeight(((0.0, 0.0),)),
            PowerWeight(((0.0, 0.3),)),
            PowerWeight(((0.0, 0.25), (math.pi, -0.25)))]


def seeded_h(rng, degree: int = 4) -> CoeffVector:
    """Analytic polynomial h of the given degree whose coefficients are
    standard complex Gaussians drawn from ``rng``."""
    coeffs = (rng.standard_normal(degree + 1)
              + 1j * rng.standard_normal(degree + 1)) / math.sqrt(2.0)
    return CoeffVector(IndexWindow(0, degree), coeffs)


def _sum_squares(x: np.ndarray) -> float:
    """||x||_F^2 of a C-ordered complex array: the squares of its real and
    imaginary parts, summed by NumPy's pairwise summation, whose order is
    fixed by the shape.  np.linalg.norm of a complex array sums by BLAS
    ddot, whose order follows the BLAS thread count."""
    return float(np.sum(np.square(x.view(np.float64))))


def identity_residual(n: int, h: CoeffVector, pw: PowerWeight, N: int
                      ) -> tuple[float, np.ndarray]:
    """Residual of the conjugation identity on N x N sections.

    W is the two-grid refined outer pair of ``pw`` at grid 8N with outer
    window [0, N + n - 1], the coefficients the sections read; each
    coefficient is its own term of the pair's analysis, so a wider window
    would change none of them.  Returns the Frobenius-relative residual
    ||C - T - K0|| / ||T|| of C = M_W T(e_{-n}h) M_{1/W}, T = T(e_{-n}h)
    and K0 from ``k0_matrix``, with both Frobenius norms summed in an order
    fixed by the shape (``_sum_squares``), together with the N singular
    values of K0 in descending order.

    They are taken from the columns of K0 that are not all zero, padded
    with zeros to length N.  This is exact: K0 K0^H is the sum of c c^H
    over the columns c of K0, to which a zero column adds nothing, so the
    nonzero singular values are those of the nonzero columns.  Which
    columns are nonzero is read from the full N x N product, never assumed
    to be the first n, so a column >= n that the composition leaves
    nonzero shows in the values and in :func:`rank_ratio`.
    """
    W = outer_pair_refined(pw, 8 * N, IndexWindow(0, N + n - 1))
    a = CoeffVector(IndexWindow(-n, h.hi - n), h.coeffs)
    T = toeplitz_matrix(a, N)
    C = conjugated_toeplitz_matrix(a, W, N)
    K0 = k0_matrix(n, h, W, N)
    C -= T
    C -= K0
    res = math.sqrt(_sum_squares(C) / _sum_squares(T))
    nz = np.flatnonzero(np.any(K0, axis=0))
    sv = np.zeros(N)
    sv[:len(nz)] = np.linalg.svd(K0[:, nz], compute_uv=False)
    return res, sv


def rank_ratio(sv: np.ndarray, n: int) -> float:
    """sigma_{n+1} / sigma_1 of descending singular values ``sv``: how far
    the matrix is from rank n; 0 for the zero matrix."""
    return float(np.max(sv[n:], initial=0.0) / sv[0]) if sv[0] else 0.0


def identity_clauses(n: int, h: CoeffVector, pw: PowerWeight, N: int
                     ) -> tuple[dict, dict[str, Check]]:
    """The conjugation identity's clauses for e_{-n} h and ``pw`` at sizes
    N and 2N: the residual (:func:`identity_residual`) at N is at most
    1e-6; at 2N it is strictly smaller or below the floor 1e-12; the larger
    sigma_{n+1}/sigma_1 of the two K0 (``rank_ratio``, :func:`rank_ratio`)
    is at most 1e-8.  ``k0_rank`` counts the singular values above
    1e-8 sigma_1; ``decreasing`` is the verdict of the 2N clause.

    The floor.  C = L_W (T_a L_{1/W}) is summed through its factors' zero
    patterns: an entry of T_a L_{1/W} has at most deg h + 1 nonzero terms
    and one of L_W (.) at most N (a zero term adds an exact zero, so dense
    GEMMs of the same factors have the same counts); K0 is a product of
    inner dimension n.  A complex inner product of k terms errs by at most
    sqrt(2) gamma_(k+2) |x|^T |y|, gamma_k ~ k u, u = 2^-53 (Higham 2002,
    Secs. 3.5-3.6), and || |L_W| |T_a| |L_{1/W}| ||_F <= ||W||_l1 ||T||_F
    ||1/W||_l1, so the residual's rounding error is up to about
    sqrt(2) (N + deg h + n + 6) u ||W||_l1 ||1/W||_l1.  Only a weight
    within rounding of w == 1 has no truncation error, and there the
    product of norms is 1: 2.2e-14 at N = 128 with deg h = 4 and n = 3,
    1e-12 at N of about 6,300.  Below it the residuals' order is noise
    (|t-1|^1e-13, N = 64: 2.9e-17, 3.5e-17); it is five decades under the
    suite's least residual_256 (1.1e-7).
    """
    res, ratio, rank = [], 0.0, 0
    for size in (N, 2 * N):
        r, sv = identity_residual(n, h, pw, size)
        res.append(r)
        ratio = max(ratio, rank_ratio(sv, n))
        rank = max(rank, int(np.sum(sv > 1e-8 * sv[0])))
    checks = {f"residual_below_1e-6_at_{N}": Check(res[0], "<=", 1e-6),
              f"residual_decreases_at_{2 * N}":
                  Check(res[1], "<", max(res[0], 1e-12)),
              "k0_rank_bound": Check(ratio, "<=", 1e-8)}
    cells = {"residual_N": res[0], "residual_2N": res[1],
             "decreasing": checks[f"residual_decreases_at_{2 * N}"].passed,
             "rank_ratio": ratio,
             "k0_rank": rank, "pass": all(c.passed for c in checks.values())}
    return cells, checks


def weighted_bracket(a: CoeffVector, pw: PowerWeight, params: BracketParams,
                     base: NormEstimate) -> NormEstimate:
    """The bracket of ``a`` on the section weighted by ``pw``, given the
    unweighted bracket ``base``.

    The weight's outer pair is the one-grid construction from 8N samples
    on the outer window [0, N + n - 1], n = max(0, -lo), the coefficients
    the section reads, and the grid error of an exponent lambda scales like
    M^-(1 - |lambda|) in the grid size M = 8N.
    A weight with no points or only zero exponents is w == 1: its samples
    are exactly 1, its outer pair is exactly (1, 1) and its section a
    bitwise copy of the unweighted one, so it shares the unweighted bracket.
    """
    if all(lam == 0.0 for _, lam in pw.points):
        return base
    N = params.N
    W = outer_pair(sample_power_weight(pw, 8 * N),
                   IndexWindow(0, N + max(0, -a.lo) - 1))
    return essential_bracket(a, W, params)


def ap_characteristics(pw: PowerWeight, p: float, grids: tuple[int, ...]
                       ) -> tuple[list[float], list[float]]:
    """Arc-scan A_p characteristic of ``pw`` sampled on each grid size,
    every scan over all arcs of its grid, and its growth c_next / c - 1
    from each grid to the next."""
    chars = [ap_characteristic(sample_power_weight(pw, M), p) for M in grids]
    return chars, [b / a - 1.0 for a, b in zip(chars, chars[1:])]


@_criterion(gate=10.0)
def run_conjugation_identity():
    """Sections of M_W T(e_{-n}h) M_{1/W} against T(e_{-n}h) + K0: the
    clauses of :func:`identity_clauses` at N=128 and 256 for n in {1,2,3},
    seeded degree-4 h and weights |t-1|^(+-0.3)."""
    rng = np.random.default_rng(_SEED)
    hs = {n: seeded_h(rng) for n in (1, 2, 3)}
    rows, members = [], {}
    for n in (1, 2, 3):
        for lam in (-0.3, 0.3):
            cells, checks = identity_clauses(n, hs[n],
                                             PowerWeight(((0.0, lam),)), 128)
            for name, check in checks.items():
                members.setdefault(name, []).append(check)
            del cells["k0_rank"]  # identity.csv reports rank_ratio alone
            rows.append({"lambda": lam, "n": n,
                         "residual_128": cells.pop("residual_N"),
                         "residual_256": cells.pop("residual_2N"), **cells})
    return rows, members


@_criterion(gate=30.0)
def run_unweighted_bracket():
    """Unweighted essential-norm brackets against the dense-grid sup of |a|.

    Bracket at N=1024, m=64, L=64, thetas=256 for the three test symbols;
    checks that the certified bracket [lower, upper / sqrt(1 - beta)]
    contains the 2^16-point grid sup and that the measured width
    upper - lower does not exceed 4% of that sup.

    The upper surrogate ||T_N(a)(I - P_m)|| is a compression norm, so it
    never exceeds sup|a| and, when |a| has a curved maximum, sits below it
    by O(1/N^2) (1.6e-5 and 5.5e-5 for the two curved symbols here).
    beta is the a-priori deficiency bound of
    :func:`~toepnorm.estimation.compression_deficiency_bound`, computed from
    the coefficient window, N and m alone, so the certified end is an upper
    bound for sup|a| (hence for the grid sup) without reference to either.
    """
    params = BracketParams()
    rows, members = [], {"bracket_contains_grid_sup": [],
                         "bracket_width_within_4pct": []}
    for name, a in bracket_symbols():
        est = essential_bracket(a, None, params)
        sup = symbol_sup(a)
        beta = compression_deficiency_bound(a, params.m, params.N)
        certified = est.upper / math.sqrt(1.0 - beta)
        guard = _CONTAIN_GUARD * sup
        contains = [Check(est.lower - guard, "<=", sup),
                    Check(sup, "<=", certified + guard)]
        width = (est.upper - est.lower) / sup
        members["bracket_contains_grid_sup"] += contains
        members["bracket_width_within_4pct"].append(Check(width, "<=", 0.04))
        rows.append({"symbol": name, "lower": est.lower, "upper": est.upper,
                     "deficiency_bound": beta, "certified_upper": certified,
                     "grid_sup": sup, "width_frac": width,
                     "contains_sup": all(c.passed for c in contains)})
    return rows, members


@_criterion(gate=60.0)
def run_weight_independence():
    """Weighted upper estimates against the unweighted one.

    For every test symbol and weight the upper end of the conjugated
    section's bracket (:func:`weighted_bracket`, N=1024, m=64) must agree
    with the unweighted one to within 2% of sup|a|, and the worst deviation
    must shrink when N doubles to 2048.  Outer pairs come from the one-grid
    construction at M = 8N, whose error for an exponent lambda scales like
    M^-(1 - |lambda|).  The largest deviation comes from lambda = 0.45, a
    predicted factor 2^-0.55 = 0.683 per doubling, against a measured
    max_dev_2048 / max_dev_1024 of 0.683, 0.683 and 0.685 for the three
    symbols.
    """
    rows, members = [], {"deviation_within_2pct": [],
                         "deviation_shrinks_at_2048": []}
    weights = independence_weights()
    for name, a in bracket_symbols():
        sup = symbol_sup(a)
        devs = {}
        for N in (1024, 2048):
            params = BracketParams(N=N)
            base = essential_bracket(a, None, params)
            devs[N] = max(abs(weighted_bracket(a, pw, params, base).upper
                              - base.upper) for pw in weights)
        within = Check(devs[1024], "<=", 0.02 * sup)
        shrinks = Check(devs[2048], "<", devs[1024])
        members["deviation_within_2pct"].append(within)
        members["deviation_shrinks_at_2048"].append(shrinks)
        rows.append({"symbol": name, "grid_sup": sup,
                     "max_dev_1024": devs[1024], "max_dev_2048": devs[2048],
                     "within_2pct": within.passed, "shrinks": shrinks.passed})
    return rows, members


@_criterion(gate=20.0)
def run_ap_classification():
    """Closed-form A_p verdicts against the arc-scan growth signal.

    Twelve (lambda, p) pairs for w = |t-1|^lambda, grids
    M = 256 -> 512 -> 1024.  Admissible weights must grow by less than 25%
    per grid doubling; each inadmissible weight must grow by at least
    2^s - 1 per doubling, s being its closed-form divergence exponent
    s = max(-1/p - lambda, lambda - 1/p'), positive exactly outside A_p.

    Derivation.  Say lambda >= 1/p' (the case lambda <= -1/p swaps the
    roles of w^p and w^(-p')).  With alpha = lambda p' > 1, the midpoint
    samples theta_k = 2 pi (k + 1/2) / M near the singular point make the
    average of w^(-p') over a fixed arc behave like A M^(alpha-1) - B.
    A carries the full series sum_k (k + 1/2)^(-alpha) over the samples
    next to the point; B > 0 is that series' tail beyond the arc's end,
    ~ K^(1-alpha) / (alpha - 1) for K ~ M samples, which no longer depends
    on M once scaled by M^(alpha-1).  Raised to 1/p', the characteristic
    grows like M^s with s = (alpha - 1)/p' = lambda - 1/p', so the growth
    per doubling tends to 2^s - 1.  Because B enters with a negative sign,
    the finite-M ratio (2^(alpha-1) A M^(alpha-1) - B) / (A M^(alpha-1) - B)
    exceeds 2^(alpha-1), and the growth approaches 2^s - 1 from above.  The
    table records s and the limiting growth 2^max(s, 0) - 1 (zero inside
    A_p, where the characteristic stays bounded) next to the measured rates.
    """
    rows, members = [], {"admissible_growth_below_25pct": [],
                         "inadmissible_growth_at_predicted_rate": []}
    for p in (2.0, 4.0):
        for lam in (-0.6, -0.45, 0.0, 0.45, 0.55, 0.9):
            pw = PowerWeight(((0.0, lam),))
            admissible = khvedelidze_ap_check(pw, p)
            s = max(-1.0 / p - lam, lam - (1.0 - 1.0 / p))
            predicted = 2.0 ** max(s, 0.0) - 1.0
            chars, growths = ap_characteristics(pw, p, (256, 512, 1024))
            name, op, bound = (
                ("admissible_growth_below_25pct", "<", 0.25) if admissible
                else ("inadmissible_growth_at_predicted_rate", ">=", predicted))
            checks = [Check(g, op, bound) for g in growths]
            members[name] += checks
            rows.append({"p": p, "lambda": lam, "admissible": admissible,
                         "char_256": chars[0], "char_512": chars[1],
                         "char_1024": chars[2], "growth_1": growths[0],
                         "growth_2": growths[1], "s": s,
                         "predicted_growth": predicted,
                         "signal_agrees": all(c.passed for c in checks)})
    return rows, members


def _reciprocal_defect(wc: np.ndarray, wic: np.ndarray) -> float:
    """max_k |(W * 1/W)(k) - delta_0(k)| over the two windows' common
    leading coefficients."""
    K = min(len(wc), len(wic))
    conv = np.convolve(wc[:K], wic[:K])[:K]
    conv[0] -= 1.0
    return float(np.max(np.abs(conv)))


@_criterion(gate=5.0)
def run_outer_validation():
    """Outer function of w = |t-1| against the closed form W(z) = 1 - z."""
    pw = PowerWeight(((0.0, 1.0),))
    pair = outer_pair_exact(pw, IndexWindow(0, 511))
    target = np.r_[1.0, -1.0, np.zeros(510)]
    coeffs = Check(float(np.max(np.abs(pair.w_coeffs.coeffs - target))),
                   "<=", 1e-6)
    recip = Check(_reciprocal_defect(pair.w_coeffs.coeffs,
                                     pair.winv_coeffs.coeffs), "<=", 1e-8)
    table = {"w_coeffs_vs_1_minus_z": coeffs, "reciprocal_residual": recip}
    rows = [{"quantity": q, "value": c.value, "threshold": c.bound,
             "pass": c.passed} for q, c in table.items()]
    return rows, {"coefficients_match": [coeffs],
                  "reciprocal_residual_below_1e-8": [recip]}


CRITERIA = (run_conjugation_identity, run_unweighted_bracket,
            run_weight_independence, run_ap_classification,
            run_outer_validation)


def run_all() -> list[CriterionResult]:
    return [run() for run in CRITERIA]
