"""Verification suite: runs every headline check and reports tables.

Each ``run_*`` function evaluates one family of checks at fixed, documented
parameters and returns a :class:`CriterionResult` with the raw table rows,
named sub-checks and wall time.  The CLI ``reproduce`` command writes these
tables to CSV; the test suite asserts the sub-checks.

Random polynomial coefficients come from a fixed seed, so repeated runs on
the same machine with the same BLAS thread count give identical tables.
Dense products and decompositions run in the BLAS library, whose
summation order depends on its thread count: the last digits of the
tables can differ between thread counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .estimation import (BracketParams, NormEstimate,
                         compression_deficiency_bound, essential_bracket,
                         theoretical_bounds)
from .operators import (conjugated_toeplitz_matrix, k0_matrix, symbol_sup,
                        toeplitz_matrix)
from .spectral import CoeffVector, IndexWindow
from .weights import (PowerWeight, _reciprocal_defect, ap_characteristic,
                      evaluate_outer, khvedelidze_ap_check, outer_pair,
                      outer_pair_exact, outer_pair_refined,
                      sample_power_weight)

_SEED = 20240901

# Relative float guard for "bracket contains x" comparisons; covers LAPACK
# rounding when an endpoint and x coincide in exact arithmetic.
_CONTAIN_GUARD = 1e-12


@dataclass
class CriterionResult:
    name: str
    elapsed: float
    rows: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)


def _symbol(lo: int, coeffs) -> CoeffVector:
    arr = np.asarray(coeffs, dtype=complex)
    return CoeffVector(IndexWindow(lo, lo + len(arr) - 1), arr)


def bracket_symbols() -> list[tuple[str, CoeffVector]]:
    return [
        ("e_-1", _symbol(-1, [1.0])),
        ("e_-1+0.5e_2", _symbol(-1, [1.0, 0.0, 0.0, 0.5])),
        ("2e_-2+e_1+0.3e_3", _symbol(-2, [2.0, 0.0, 0.0, 1.0, 0.0, 0.3])),
    ]


def independence_weights() -> list[tuple[str, PowerWeight]]:
    return [
        ("|t-1|^-0.3", PowerWeight(((0.0, -0.3),))),
        ("|t-1|^0", PowerWeight(((0.0, 0.0),))),
        ("|t-1|^0.3", PowerWeight(((0.0, 0.3),))),
        ("|t-1|^0.25*|t+1|^-0.25", PowerWeight(((0.0, 0.25), (math.pi, -0.25)))),
    ]


def seeded_h(rng, degree: int = 4) -> CoeffVector:
    """Analytic polynomial h of the given degree whose coefficients are
    standard complex Gaussians drawn from ``rng``."""
    coeffs = (rng.standard_normal(degree + 1)
              + 1j * rng.standard_normal(degree + 1)) / math.sqrt(2.0)
    return CoeffVector(IndexWindow(0, degree), coeffs)


def identity_residual(n: int, h: CoeffVector, pw: PowerWeight, N: int
                      ) -> tuple[float, np.ndarray]:
    """Residual of the conjugation identity on N x N sections.

    W is the two-grid refined outer pair of ``pw`` at grid 8N with outer
    window [0, 4N - 1].  Returns the Frobenius-relative residual
    ||C - T - K0|| / ||T|| of C = M_W T(e_{-n}h) M_{1/W}, T = T(e_{-n}h)
    and K0 from ``k0_matrix``, together with the singular values of K0.
    """
    W = outer_pair_refined(pw, 8 * N, IndexWindow(0, 4 * N - 1))
    a = CoeffVector(IndexWindow(-n, h.hi - n), h.coeffs)
    T = toeplitz_matrix(a, N)
    C = conjugated_toeplitz_matrix(a, W, N)
    K0 = k0_matrix(n, h, W, N)
    res = float(np.linalg.norm(C - T - K0) / np.linalg.norm(T))
    return res, np.linalg.svd(K0, compute_uv=False)


def weighted_brackets(a: CoeffVector, weights: list[PowerWeight],
                      params: BracketParams
                      ) -> tuple[NormEstimate, list[NormEstimate]]:
    """The unweighted bracket of ``a`` and one bracket per weight.

    Each weight's outer pair is the one-grid construction from 8N samples
    on the outer window [0, N + n + 15], n = max(0, -lo): the section reads
    coefficients below N + n only, and the grid error of an exponent lambda
    scales like M^-(1 - |lambda|) in the grid size M = 8N.
    A weight with no points or only zero exponents is w == 1: its samples
    are exactly 1, its outer pair is exactly (1, 1) and its section a
    bitwise copy of the unweighted one, so it shares the unweighted bracket.
    """
    N = params.N
    n_neg = max(0, -a.lo)
    base = essential_bracket(a, None, params)
    ests = [base if all(lam == 0.0 for _, lam in pw.points)
            else essential_bracket(
                a, outer_pair(sample_power_weight(pw, 8 * N),
                              IndexWindow(0, N + n_neg + 15)), params)
            for pw in weights]
    return base, ests


def ap_characteristics(pw: PowerWeight, p: float, grids: tuple[int, ...]
                       ) -> list[float]:
    """Arc-scan A_p characteristic of ``pw`` sampled on each grid size,
    every scan with the arc resolution of the finest grid."""
    return [ap_characteristic(sample_power_weight(pw, M), p, maxM=max(grids))
            for M in grids]


def run_conjugation_identity() -> CriterionResult:
    """Sections of M_W T(e_{-n}h) M_{1/W} against T(e_{-n}h) + K0.

    For n in {1,2,3}, seeded degree-4 h and weights |t-1|^(+-0.3): the
    Frobenius-relative residual must stay below 1e-6 at N=128 (outer windows
    of length 4N from the two-grid refined construction) and strictly shrink
    at N=256.  The same sweep checks the rank bound sigma_{n+1}/sigma_1 <=
    1e-8 for every K0 section.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    hs = {n: seeded_h(rng) for n in (1, 2, 3)}
    rows = []
    res_ok = True
    dec_ok = True
    rank_ok = True
    for n in (1, 2, 3):
        for lam in (-0.3, 0.3):
            pw = PowerWeight(((0.0, lam),))
            res = {}
            rank_ratio = 0.0
            for N in (128, 256):
                res[N], sv = identity_residual(n, hs[n], pw, N)
                rank_ratio = max(rank_ratio, float(sv[n] / sv[0]))
            ok_res = res[128] <= 1e-6
            ok_dec = res[256] < res[128]
            ok_rank = rank_ratio <= 1e-8
            res_ok &= ok_res
            dec_ok &= ok_dec
            rank_ok &= ok_rank
            rows.append({"lambda": lam, "n": n,
                         "residual_128": res[128], "residual_256": res[256],
                         "decreasing": ok_dec, "rank_ratio": rank_ratio,
                         "pass": ok_res and ok_dec and ok_rank})
    elapsed = time.perf_counter() - t0
    checks = {"residual_below_1e-6_at_128": res_ok,
              "residual_decreases_at_256": dec_ok,
              "k0_rank_bound": rank_ok,
              "runtime_within_10s": elapsed <= 10.0}
    return CriterionResult("conjugation_identity", elapsed, rows, checks)


def run_unweighted_bracket() -> CriterionResult:
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
    t0 = time.perf_counter()
    params = BracketParams()
    rows = []
    contain_ok = True
    width_ok = True
    for name, a in bracket_symbols():
        est = essential_bracket(a, None, params)
        sup = symbol_sup(a)
        beta = compression_deficiency_bound(a, params.m, params.N)
        certified = est.upper / math.sqrt(1.0 - beta)
        guard = _CONTAIN_GUARD * sup
        contains = (est.lower - guard <= sup) and (sup <= certified + guard)
        width = (est.upper - est.lower) / sup
        contain_ok &= contains
        width_ok &= width <= 0.04
        rows.append({"symbol": name, "lower": est.lower, "upper": est.upper,
                     "deficiency_bound": beta, "certified_upper": certified,
                     "grid_sup": sup, "width_frac": width,
                     "contains_sup": contains})
    elapsed = time.perf_counter() - t0
    checks = {"bracket_contains_grid_sup": contain_ok,
              "bracket_width_within_4pct": width_ok,
              "runtime_within_30s": elapsed <= 30.0}
    return CriterionResult("unweighted_bracket", elapsed, rows, checks)


def run_weight_independence() -> CriterionResult:
    """Weighted upper estimates against the unweighted one.

    For every test symbol and weight the upper end of the conjugated
    section's bracket (:func:`weighted_brackets`, N=1024, m=64) must agree
    with the unweighted one to within 2% of sup|a|, and the worst deviation
    must shrink when N doubles to 2048.  Outer pairs come from the one-grid
    construction at M = 8N, whose error for an exponent lambda scales like
    M^-(1 - |lambda|): a factor 2^-0.7 = 0.616 per doubling at |lambda| =
    0.3, against a measured max_dev_2048 / max_dev_1024 of 0.616, 0.613
    and 0.654 for the three symbols.
    """
    t0 = time.perf_counter()
    rows = []
    dev_ok = True
    shrink_ok = True
    weights = [pw for _, pw in independence_weights()]
    for name, a in bracket_symbols():
        sup = symbol_sup(a)
        devs = {}
        for N in (1024, 2048):
            base, ests = weighted_brackets(a, weights,
                                           BracketParams(N=N, m=64))
            devs[N] = max(abs(est.upper - base.upper) for est in ests)
        ok_dev = devs[1024] <= 0.02 * sup
        ok_shrink = devs[2048] < devs[1024]
        dev_ok &= ok_dev
        shrink_ok &= ok_shrink
        rows.append({"symbol": name, "grid_sup": sup,
                     "max_dev_1024": devs[1024], "max_dev_2048": devs[2048],
                     "within_2pct": ok_dev, "shrinks": ok_shrink})
    elapsed = time.perf_counter() - t0
    checks = {"deviation_within_2pct": dev_ok,
              "deviation_shrinks_at_2048": shrink_ok,
              "runtime_within_60s": elapsed <= 60.0}
    return CriterionResult("weight_independence", elapsed, rows, checks)


def run_ap_classification() -> CriterionResult:
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
    t0 = time.perf_counter()
    rows = []
    adm_ok = True
    inadm_ok = True
    for p in (2.0, 4.0):
        for lam in (-0.6, -0.45, 0.0, 0.45, 0.55, 0.9):
            pw = PowerWeight(((0.0, lam),))
            admissible = khvedelidze_ap_check(pw, p)
            s = max(-1.0 / p - lam, lam - (1.0 - 1.0 / p))
            predicted = 2.0 ** max(s, 0.0) - 1.0
            chars = ap_characteristics(pw, p, (256, 512, 1024))
            g1 = chars[1] / chars[0] - 1.0
            g2 = chars[2] / chars[1] - 1.0
            if admissible:
                ok = g1 < 0.25 and g2 < 0.25
                adm_ok &= ok
            else:
                ok = g1 >= predicted and g2 >= predicted
                inadm_ok &= ok
            rows.append({"p": p, "lambda": lam, "admissible": admissible,
                         "char_256": chars[0], "char_512": chars[1],
                         "char_1024": chars[2], "growth_1": g1, "growth_2": g2,
                         "s": s, "predicted_growth": predicted,
                         "signal_agrees": ok})
    elapsed = time.perf_counter() - t0
    checks = {"admissible_growth_below_25pct": adm_ok,
              "inadmissible_growth_at_predicted_rate": inadm_ok,
              "runtime_within_20s": elapsed <= 20.0}
    return CriterionResult("ap_classification", elapsed, rows, checks)


def run_outer_validation() -> CriterionResult:
    """Outer function of w = |t-1| against the closed form W(z) = 1 - z."""
    t0 = time.perf_counter()
    pw = PowerWeight(((0.0, 1.0),))
    win = IndexWindow(0, 511)
    pair = outer_pair_exact(pw, win)
    target = np.zeros(512, dtype=complex)
    target[0] = 1.0
    target[1] = -1.0
    coeff_err = float(np.max(np.abs(pair.w_coeffs.coeffs - target)))
    rows = [{"quantity": "w_coeffs_vs_1_minus_z", "value": coeff_err,
             "threshold": 1e-6, "pass": coeff_err <= 1e-6}]
    eval_ok = True
    for z in (0.0, 0.5, 0.3j):
        err = abs(evaluate_outer(pw, z) - (1.0 - z))
        ok = err <= 1e-6
        eval_ok &= ok
        rows.append({"quantity": f"evaluate_outer_z={z}", "value": err,
                     "threshold": 1e-6, "pass": ok})
    recip_err = _reciprocal_defect(pair.w_coeffs.coeffs,
                                   pair.winv_coeffs.coeffs)
    rows.append({"quantity": "reciprocal_residual", "value": recip_err,
                 "threshold": 1e-8, "pass": recip_err <= 1e-8})
    elapsed = time.perf_counter() - t0
    checks = {"coefficients_match": coeff_err <= 1e-6,
              "pointwise_evaluation_matches": eval_ok,
              "reciprocal_residual_below_1e-8": recip_err <= 1e-8,
              "runtime_within_5s": elapsed <= 5.0}
    return CriterionResult("outer_validation", elapsed, rows, checks)


def run_theoretical_bounds() -> CriterionResult:
    """Spot values of the essential-norm bound coefficients."""
    t0 = time.perf_counter()
    rows = []
    ok_all = True
    for p, expected in ((2.0, 1.0), (4.0, math.sqrt(2.0))):
        lo, up = theoretical_bounds(p)
        ok = abs(lo - 1.0) <= 1e-15 and abs(up - expected) <= 1e-15
        ok_all &= ok
        rows.append({"quantity": f"bound_coefficients_p={p:g}",
                     "value": up, "threshold": expected, "pass": ok})
    elapsed = time.perf_counter() - t0
    checks = {"bound_values_exact": ok_all}
    return CriterionResult("theoretical_bounds", elapsed, rows, checks)


CRITERIA = (run_conjugation_identity, run_unweighted_bracket,
            run_weight_independence, run_ap_classification,
            run_outer_validation, run_theoretical_bounds)


def run_all() -> list[CriterionResult]:
    return [run() for run in CRITERIA]
