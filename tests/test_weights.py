"""Muckenhoupt classification and outer-function construction."""

import math

import numpy as np
import pytest

from toepnorm import (CoeffVector, IndexWindow, analyze,
                      ap_characteristic, khvedelidze_ap_check, outer_pair,
                      outer_pair_exact, outer_pair_refined,
                      sample_power_weight, synthesize)
from toepnorm import weights
from toepnorm.acceptance import _reciprocal_defect
from toepnorm.spectral import grid_thetas
from toepnorm.weights import PowerWeight

from reference import coeff, multiply, schwarz_outer


def single(lam, angle=0.0):
    return PowerWeight(((angle, lam),))


# ---------------------------------------------------------- closed-form A_p

def test_ap_check_examples():
    assert khvedelidze_ap_check(single(0.4), 2.0)
    assert not khvedelidze_ap_check(single(0.6), 2.0)
    assert khvedelidze_ap_check(PowerWeight(), 3.0)


def test_ap_check_rejects_bad_p():
    with pytest.raises(ValueError):
        khvedelidze_ap_check(single(0.1), 1.0)


def test_ap_check_agrees_with_interval_on_lattice():
    for lam in np.linspace(-0.9, 0.9, 13):
        for p in (1.2, 1.5, 2.0, 3.0, 4.0, 8.0):
            expected = -1.0 / p < lam < 1.0 - 1.0 / p
            assert khvedelidze_ap_check(single(lam), p) == expected


# -------------------------------------------------------- ap_characteristic

def test_ap_characteristic_constant_weight_is_one():
    for val in (1.0, 3.7):
        assert abs(ap_characteristic(val * np.ones(64), 2.0) - 1.0) < 1e-13


def test_ap_characteristic_scale_invariance():
    rng = np.random.default_rng(3)
    vals = np.exp(rng.standard_normal(128))
    a1 = ap_characteristic(vals, 2.5)
    a2 = ap_characteristic(17.3 * vals, 2.5)
    assert abs(a1 - a2) <= 1e-12 * a1


def test_ap_characteristic_at_least_one():
    rng = np.random.default_rng(11)
    for _ in range(5):
        w = np.exp(rng.standard_normal(64))
        for p in (1.5, 2.0, 4.0):
            assert ap_characteristic(w, p) >= 1.0 - 1e-12


def test_ap_characteristic_growth_signal():
    # Admissible exponent: bounded growth under refinement.  The exponent
    # just past the boundary diverges, visibly faster at every doubling.
    chars = {}
    for lam in (0.45, 0.55):
        chars[lam] = [ap_characteristic(sample_power_weight(single(lam), M),
                                        2.0) for M in (256, 512, 1024)]
    g45 = [chars[0.45][i + 1] / chars[0.45][i] - 1 for i in range(2)]
    g55 = [chars[0.55][i + 1] / chars[0.55][i] - 1 for i in range(2)]
    assert all(g < 0.25 for g in g45)
    assert all(b > a for a, b in zip(g45, g55))
    assert chars[0.55][2] > chars[0.55][0]


def test_ap_characteristic_rejects_nonpositive():
    w = np.array([1, 1, 1, 0, 1, 1, 1, 1.0])
    with pytest.raises(ValueError):
        ap_characteristic(w, 2.0)


@pytest.mark.parametrize("w", [
    np.ones(8, dtype=complex), -np.ones(8),
    np.array([1, 1, np.nan, 1, 1, 1, 1, 1]),
    np.array([1, 1, 1, 1, 1, 1, np.inf, 1]),
    np.ones((8, 8)), np.ones(12)],
    ids=["complex", "negative", "nan", "inf", "2-D", "size-12"])
def test_weight_samples_must_be_finite_positive_reals_on_a_grid(w):
    # each refused by the check both consumers share, before any arithmetic
    with np.errstate(all="raise"):
        for use in (lambda: ap_characteristic(w, 2.0),
                    lambda: outer_pair(w, IndexWindow(0, 3))):
            with pytest.raises(ValueError, match="weight samples|grid size"):
                use()


# ---------------------------------------------------------------- outer_pair

def test_outer_pair_constant_weight():
    pair = outer_pair(4.0 * np.ones(64), IndexWindow(0, 15))
    assert abs(coeff(pair.w_coeffs, 0) - 4.0) < 1e-13
    assert abs(coeff(pair.winv_coeffs, 0) - 0.25) < 1e-13
    assert np.max(np.abs(pair.w_coeffs.coeffs[1:])) < 1e-13
    assert _reciprocal_defect(pair.w_coeffs.coeffs,
                              pair.winv_coeffs.coeffs) <= 1e-14


def test_outer_pair_refined_absolute_value_weight():
    # w = |t - 1| has outer function 1 - z.
    pair = outer_pair_refined(single(1.0), 1024, IndexWindow(0, 255))
    target = np.zeros(256, dtype=complex)
    target[0], target[1] = 1.0, -1.0
    assert np.max(np.abs(pair.w_coeffs.coeffs - target)) < 1e-6


def test_outer_pair_exact_absolute_value_weight():
    pair = outer_pair_exact(single(1.0), IndexWindow(0, 63))
    target = np.zeros(64, dtype=complex)
    target[0], target[1] = 1.0, -1.0
    assert np.max(np.abs(pair.w_coeffs.coeffs - target)) < 1e-14


def test_outer_pair_grid_bias_on_cusped_weight_is_order_one_over_m():
    # The one-grid construction carries a known O(1/M) alias on cusped
    # weights; it must stay at that scale, no worse.
    w = sample_power_weight(single(1.0), 1024)
    pair = outer_pair(w, IndexWindow(0, 15))
    assert abs(coeff(pair.w_coeffs, 0) - 1.0) < 2e-3


def test_outer_reciprocal_consistency():
    win = IndexWindow(0, 255)
    exact = outer_pair_exact(single(0.3), win)
    prod = multiply(exact.w_coeffs, exact.winv_coeffs)
    defect = prod.coeffs[:256].copy()
    defect[0] -= 1
    assert np.max(np.abs(defect)) <= 1e-8

    refined = outer_pair_refined(single(0.3), 1024, win)
    prod = multiply(refined.w_coeffs, refined.winv_coeffs)
    defect = prod.coeffs[:256].copy()
    defect[0] -= 1
    assert np.max(np.abs(defect)) <= 1e-6


def test_outer_pair_modulus_matches_weight_on_grid():
    # Smooth trig-polynomial weight: spectrally exact reconstruction.
    M = 512
    th = 2 * np.pi * (np.arange(M) + 0.5) / M
    vals = 2.0 + np.cos(th)
    pair = outer_pair(vals, IndexWindow(0, M // 2 - 1))
    recon = np.abs(synthesize(pair.w_coeffs, M))
    assert np.max(np.abs(recon - vals) / vals) < 1e-10
    # Polynomial modulus with the zero off the circle.
    vals2 = np.abs(1.0 - 0.7 * np.exp(1j * th))
    pair2 = outer_pair(vals2, IndexWindow(0, M // 2 - 1))
    recon2 = np.abs(synthesize(pair2.w_coeffs, M))
    assert np.max(np.abs(recon2 - vals2) / vals2) < 1e-6


def test_outer_pair_leading_coefficient_normalization():
    for pair in (outer_pair(sample_power_weight(single(0.3), 512),
                            IndexWindow(0, 63)),
                 outer_pair_refined(single(-0.3), 512, IndexWindow(0, 63)),
                 outer_pair_exact(single(0.25), IndexWindow(0, 63))):
        c0 = coeff(pair.w_coeffs, 0)
        assert c0.real > 0
        assert abs(c0.imag) < 1e-12


def two_analyze_pair(uh, size, win):
    """The outer pair from the log spectrum ``uh`` with W and 1/W each
    synthesized from its own signed spectrum."""
    coeffs = []
    for sign in (1.0, -1.0):
        v = sign * uh
        v[1:] *= 2.0
        wg = np.exp(synthesize(CoeffVector(0, v),
                               size))
        coeffs.append(analyze(wg, win).coeffs)
    return coeffs


def log_spectrum(pw, M):
    return analyze(np.log(sample_power_weight(pw, M)),
                   IndexWindow(0, M // 2 - 1)).coeffs


@pytest.mark.parametrize("pw", [single(0.3), single(-0.3),
                                PowerWeight(((0.0, 0.25), (math.pi, -0.25)))])
def test_outer_pairs_match_the_two_fft_form_bitwise(pw):
    # one synthesis serving W and 1/W changes no bit of either window
    for N, n in ((128, 1), (256, 3), (1024, 3)):
        win = IndexWindow(0, N + n + 15)
        pairs = [(outer_pair(sample_power_weight(pw, 8 * N), win),
                  two_analyze_pair(log_spectrum(pw, 8 * N), 8 * N, win))]
        if N < 1024:
            win = IndexWindow(0, 4 * N - 1)
            uh = (2.0 * log_spectrum(pw, 16 * N)[:4 * N]
                  - log_spectrum(pw, 8 * N))
            pairs.append((outer_pair_refined(pw, 8 * N, win),
                          two_analyze_pair(uh, 16 * N, win)))
        for pair, (wc, wic) in pairs:
            assert np.array_equal(pair.w_coeffs.coeffs, wc)
            assert np.array_equal(pair.winv_coeffs.coeffs, wic)


def test_outer_pairs_analyze_no_negative_frequency(monkeypatch):
    # a pair is its two windows from frequency 0 up; nothing below 0 is read
    windows = []

    def spy(f, win):
        windows.append(win)
        return analyze(f, win)

    monkeypatch.setattr(weights, "analyze", spy)
    pw = single(0.3)
    weights.outer_pair(sample_power_weight(pw, 256), IndexWindow(0, 40))
    weights.outer_pair_refined(pw, 256, IndexWindow(0, 40))
    weights.outer_pair_exact(pw, IndexWindow(0, 40))
    assert windows and all(win.lo == 0 for win in windows)


@pytest.mark.parametrize("points", [((0.0, 2000.0),), ((0.0, -300.0),),
                                    ((0.0, -2000.0), (0.5, 2000.0))])
def test_weight_leaving_the_float_range_is_refused(points):
    # overflow to inf, underflow to 0, or their product nan: each refused
    # by name, with no floating-point warning
    pw = PowerWeight(points)
    with np.errstate(all="raise"):
        with pytest.raises(ValueError) as info:
            sample_power_weight(pw, 64)
    assert str(info.value) == (f"weight {pw.label()} leaves the "
                               "floating-point range on the 64-point grid")


def test_outer_pair_rejects_bad_input():
    w = np.ones(16)
    with pytest.raises(ValueError):
        outer_pair(w, IndexWindow(1, 4))
    with pytest.raises(ValueError):
        outer_pair(w, IndexWindow(0, 8))
    with pytest.raises(ValueError):
        outer_pair(-w, IndexWindow(0, 3))
    for grid, win in ((16, IndexWindow(1, 4)), (16, IndexWindow(0, 8)),
                      (6, IndexWindow(0, 2))):
        with pytest.raises(ValueError):
            outer_pair_refined(single(0.3), grid, win)


def test_outer_pair_refined_takes_the_library_grid_sizes():
    # spectral._grid_size, the one rule for every grid: 2 is a grid, on
    # which the log spectrum's one coefficient extrapolates to 0 (the
    # offset samples of log|t-1| average to log(2)/M), and 0, 1, 3 and 6
    # are refused with its message
    pair = outer_pair_refined(single(0.3), 2, IndexWindow(0, 0))
    for c in (pair.w_coeffs, pair.winv_coeffs):
        assert c.lo == 0 and len(c.coeffs) == 1
        assert abs(c.coeffs[0] - 1.0) <= 1e-15
    for grid in (0, 1, 3, 6):
        with pytest.raises(ValueError, match=f"^grid size {grid} is not a "
                           r"power of two >= 2$"):
            outer_pair_refined(single(0.3), grid, IndexWindow(0, 0))


# ---------------------------------------------------------- Schwarz integral

def test_schwarz_outer_trivial_weight():
    assert abs(schwarz_outer(np.ones(64), 0.3 + 0.1j) - 1.0) < 1e-13


def test_schwarz_outer_constant_e():
    assert abs(schwarz_outer(math.e * np.ones(64), 0.0) - math.e) < 1e-13


def test_outer_pair_agrees_with_schwarz_integral_for_smooth_weight():
    M = 512
    th = 2 * np.pi * (np.arange(M) + 0.5) / M
    w = 2.0 + np.cos(th)
    pair = outer_pair(w, IndexWindow(0, 127))
    for z in (0.4, 0.25 + 0.3j, -0.5):
        series = np.polyval(pair.w_coeffs.coeffs[::-1], z)
        assert abs(schwarz_outer(w, z) - series) < 1e-6


# ------------------------------------------------------------------- misc

def test_power_weight_rejects_repeated_angles():
    with pytest.raises(ValueError):
        PowerWeight(((0.0, 1.0), (0.0, 2.0)))


@pytest.mark.parametrize("point", [(math.nan, 0.3), (math.inf, 0.3),
                                   (-math.inf, 0.3), (0.0, math.nan),
                                   (0.0, math.inf), (1.0, -math.inf)])
def test_power_weight_rejects_non_finite_point(point):
    # refused by name before the angle is reduced mod 2 pi, which would
    # turn an infinite angle into nan
    with pytest.raises(ValueError) as info:
        PowerWeight(((0.5, 0.2), point))
    assert str(info.value) == (f"weight point at angle {point[0]!r} with "
                               f"exponent {point[1]!r} is not finite")


def test_sample_power_weight_values():
    pw = single(1.0)
    g = sample_power_weight(pw, 16)
    th = grid_thetas(16)
    assert g.dtype == np.float64 and g.size == 16
    assert np.allclose(g, np.abs(2 * np.sin(th / 2)), atol=1e-14)
