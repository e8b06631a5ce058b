"""Essential-norm brackets and their a-priori bounds."""

import math

import numpy as np
import pytest
from scipy.linalg import svdvals

from toepnorm import (BracketParams, CoeffVector, IndexWindow, NormEstimate,
                      compression_deficiency_bound, essential_bracket,
                      outer_pair, outer_pair_exact, sample_power_weight,
                      symbol_sup, theoretical_bounds)
from toepnorm.acceptance import bracket_symbols
from toepnorm.estimation import _sigma_max_dense, assemble_section
from toepnorm.weights import PowerWeight


def laurent(lo, coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return CoeffVector(IndexWindow(lo, lo + len(coeffs) - 1), coeffs)


def naive_pair(pw, N):
    return outer_pair(sample_power_weight(pw, 8 * N), IndexWindow(0, N + 15))


SYM_FLAT = laurent(-1, [1.0])
SYM_CURVED = laurent(-1, [1.0, 0.0, 0.0, 0.5])


# ------------------------------------- upper end: column-zeroed section norm

def upper(a, W, m, N):
    return essential_bracket(a, W, BracketParams(N=N, m=m, L=16, thetas=16)).upper


def test_essential_upper_identity_symbol():
    assert abs(upper(laurent(0, [1.0]), None, 8, 128) - 1.0) < 1e-8


def test_essential_upper_identity_symbol_weighted():
    from toepnorm import outer_pair_exact
    W = outer_pair_exact(PowerWeight(((0.0, 0.3),)), IndexWindow(0, 255))
    assert abs(upper(laurent(0, [1.0]), W, 8, 128) - 1.0) < 1e-8


def test_essential_upper_pure_shift():
    assert abs(upper(SYM_FLAT, None, 32, 512) - 1.0) < 1e-6


def test_essential_upper_weighted_close_to_sup():
    spec = laurent(-1, [2.0, 0.0, 0.0, 1.0])
    pw = PowerWeight(((0.0, 0.3),))
    up = upper(spec, naive_pair(pw, 1024), 64, 1024)
    sup = symbol_sup(spec)
    assert abs(up - sup) <= 0.03 * sup


def test_essential_upper_monotone_in_m():
    vals = [upper(SYM_CURVED, None, m, 1024) for m in (8, 16, 32, 64)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


def test_deficiency_bound_caps_section_deficiency():
    sup = symbol_sup(SYM_CURVED)
    betas = []
    for N in (64, 128, 256):
        m = N // 16
        beta = compression_deficiency_bound(SYM_CURVED, None, m, N)
        up = upper(SYM_CURVED, None, m, N)
        assert 0.0 < sup - up <= beta * sup
        betas.append(beta)
    for b_N, b_2N in zip(betas, betas[1:]):
        assert 3.5 < b_N / b_2N < 4.5


def test_deficiency_bound_refuses_weighted_section():
    W = naive_pair(PowerWeight(((0.0, 0.3),)), 64)
    with pytest.raises(ValueError):
        compression_deficiency_bound(SYM_CURVED, W, 4, 64)


def test_essential_upper_parameter_validation():
    for m, L, thetas in ((0, 16, 16), (100, 16, 16), (8, 0, 16), (8, 16, 0)):
        with pytest.raises(ValueError):
            essential_bracket(SYM_FLAT, None,
                              BracketParams(N=128, m=m, L=L, thetas=thetas))


def test_sigma_max_matches_svdvals():
    # the Gram eigenvalue against a full SVD of the same nonzero block
    def grid_pair(a, N):
        pw = PowerWeight(((0.0, 0.3),))
        return outer_pair(sample_power_weight(pw, 8 * N),
                          IndexWindow(0, N + max(0, -a.lo) + 15))

    sym_complex = laurent(-1, [1j, 0.0, 0.0, 0.4])
    assert np.max(np.abs(assemble_section(sym_complex, None, 64).imag)) > 0.5
    cases = []
    for _, a in bracket_symbols():
        cases += [(a, None, 1024, 64), (a, grid_pair(a, 1024), 1024, 64)]
    cases += [
        (sym_complex, None, 256, 16),       # Hermitian G
        (SYM_FLAT, None, 512, 32),          # clustered top: G = I
        (laurent(0, [1.0]),
         outer_pair_exact(PowerWeight(((0.0, 0.3),)), IndexWindow(0, 255)),
         128, 8),
    ]
    for a, W, N, m in cases:
        B = assemble_section(a, W, N)[:, m:]
        ref = svdvals(B)[0]
        assert abs(_sigma_max_dense(B) - ref) <= 1e-14 * ref
    assert _sigma_max_dense(np.zeros((64, 56), dtype=complex)) == 0.0


# ----------------------------------------------- lower end: wave-packet bound

def test_lower_identity_symbol_exact():
    est = essential_bracket(laurent(0, [1.0]), None,
                            BracketParams(N=256, m=16, L=32, thetas=64))
    assert abs(est.lower - 1.0) < 1e-12


def test_lower_pure_shift():
    est = essential_bracket(SYM_FLAT, None,
                            BracketParams(N=512, m=64, L=64, thetas=16))
    assert est.lower >= 0.99


def test_lower_within_three_percent_of_sup():
    spec = laurent(-1, [2.0, 0.0, 0.0, 1.0])
    sup = symbol_sup(spec)
    est = essential_bracket(spec, None,
                            BracketParams(N=512, m=64, L=128, thetas=256))
    assert sup * 0.97 <= est.lower <= sup + 1e-9


def test_lower_rejects_overflowing_packet():
    # hi = 2: the packet's last column m + L - 1 must stay below N - 2
    essential_bracket(SYM_CURVED, None, BracketParams(N=64, m=16, L=46, thetas=4))
    with pytest.raises(ValueError, match="overflow"):
        essential_bracket(SYM_CURVED, None,
                          BracketParams(N=64, m=16, L=47, thetas=4))


# ----------------------------------------------------------- essential_bracket

def test_bracket_identity_symbol_tight():
    est = essential_bracket(laurent(0, [1.0]), None,
                            BracketParams(N=256, m=16, L=32, thetas=16))
    assert abs(est.lower - 1.0) < 1e-12
    assert abs(est.upper - 1.0) < 1e-9


def test_bracket_default_parameters_quality():
    est = essential_bracket(SYM_CURVED, None, BracketParams())
    sup = symbol_sup(SYM_CURVED)
    assert est.lower <= est.upper <= sup + 1e-12
    assert est.upper >= sup * (1 - 1e-4)
    assert (est.upper - est.lower) <= 0.04 * sup


def test_bracket_weighted_overlaps_unweighted():
    params = BracketParams(N=512, m=32, L=32, thetas=64)
    base = essential_bracket(SYM_CURVED, None, params)
    for lam in (0.3, -0.3):
        W = naive_pair(PowerWeight(((0.0, lam),)), 512)
        est = essential_bracket(SYM_CURVED, W, params)
        assert est.lower <= base.upper and base.lower <= est.upper


def test_bracket_scale_equivariance():
    params = BracketParams(N=256, m=16, L=32, thetas=32)
    base = essential_bracket(SYM_CURVED, None, params)
    scaled_sym = CoeffVector(SYM_CURVED.window, 2.5 * SYM_CURVED.coeffs)
    scaled = essential_bracket(scaled_sym, None, params)
    assert abs(scaled.lower - 2.5 * base.lower) <= 1e-12 * scaled.lower
    assert abs(scaled.upper - 2.5 * base.upper) <= 1e-12 * scaled.upper


def test_bracket_trivial_weight_is_bitwise_unweighted():
    # acceptance.weighted_brackets gives w == 1 the unweighted bracket; its
    # grid pair (grid 8N, window N + n + 15) yields the same numbers bitwise
    params = BracketParams(N=256)
    flat = sample_power_weight(PowerWeight(((0.0, 0.0),)), 8 * params.N)
    for _, a in bracket_symbols():
        W = outer_pair(flat, IndexWindow(0, params.N + max(0, -a.lo) + 15))
        assert essential_bracket(a, W, params) == \
            essential_bracket(a, None, params)


def test_norm_estimate_validation():
    with pytest.raises(ValueError):
        NormEstimate(2.0, 1.0, 8, 1, 1, 1)
    with pytest.raises(ValueError):
        NormEstimate(0.9, 1.0, 8, 0, 1, 1)


# --------------------------------------------------------- theoretical_bounds

def test_theoretical_bounds_values():
    lo, up = theoretical_bounds(2.0)
    assert abs(lo - 1.0) <= 1e-15 and abs(up - 1.0) <= 1e-15
    lo4, up4 = theoretical_bounds(4.0)
    assert abs(lo4 - 1.0) <= 1e-15 and abs(up4 - math.sqrt(2.0)) <= 1e-15


def test_theoretical_bounds_near_one_takes_power_branch():
    p = 1.0001
    lo, up = theoretical_bounds(p)
    assert up == 2.0 ** abs(1.0 - 2.0 / p)
    assert up < 1.0 / math.sin(math.pi / p)
    assert abs(up - 2.0) < 1e-2


def test_theoretical_bounds_rejects_bad_p():
    with pytest.raises(ValueError):
        theoretical_bounds(1.0)
