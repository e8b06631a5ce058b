"""Coefficient/grid transforms and the projection operators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toepnorm import CoeffVector, IndexWindow, analyze, synthesize
from toepnorm.spectral import grid_thetas

from reference import (add, coeff, multiply, riesz_project, truncate_pn,
                       unit)


def cv(lo, coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return CoeffVector(IndexWindow(lo, lo + len(coeffs) - 1), coeffs)


windows = st.tuples(st.integers(-32, 32), st.integers(1, 16))
finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@st.composite
def coeff_vectors(draw, max_len=16, lo_range=32):
    lo = draw(st.integers(-lo_range, lo_range))
    n = draw(st.integers(1, max_len))
    vals = draw(st.lists(st.tuples(finite, finite), min_size=n, max_size=n))
    return cv(lo, [complex(re, im) for re, im in vals])


# ---------------------------------------------------------------- analyze

def test_analyze_monomial():
    g = synthesize(unit(1), 8)
    c = analyze(g, IndexWindow(-2, 2))
    assert np.allclose(c.coeffs, [0, 0, 0, 1, 0], atol=1e-14)


def test_analyze_constant():
    c = analyze(3.0 * np.ones(8), IndexWindow(-1, 1))
    assert np.allclose(c.coeffs, [0, 3, 0], atol=1e-14)


def test_analyze_mixture_against_quadrature_oracle():
    # f = 2 e_{-1} + 5 e_3 sampled on M=16; oracle values from the defining
    # integral evaluated by a much finer midpoint sum.
    f = lambda th: 2 * np.exp(-1j * th) + 5 * np.exp(3j * th)
    got = analyze(f(grid_thetas(16)), IndexWindow(-4, 4))
    th_fine = 2 * np.pi * (np.arange(4096) + 0.5) / 4096
    for k in range(-4, 5):
        oracle = np.mean(f(th_fine) * np.exp(-1j * k * th_fine))
        assert abs(coeff(got, k) - oracle) < 1e-12


def test_analyze_rejects_wide_window():
    with pytest.raises(ValueError):
        analyze(np.ones(8), IndexWindow(-4, 4))


# -------------------------------------------------------------- synthesize

def test_synthesize_constant():
    g = synthesize(unit(0), 8)
    assert np.allclose(g, 1.0, atol=1e-15)


def test_synthesize_first_monomial():
    g = synthesize(unit(1), 4)
    assert np.allclose(g, np.exp(1j * grid_thetas(4)), atol=1e-15)


def test_synthesize_rejects_window_beyond_nyquist():
    with pytest.raises(ValueError):
        synthesize(cv(-3, np.ones(7)), 4)


def test_roundtrip_random_window():
    rng = np.random.default_rng(7)
    c = cv(-7, rng.standard_normal(15) + 1j * rng.standard_normal(15))
    back = analyze(synthesize(c, 32), c.window)
    scale = np.max(np.abs(c.coeffs))
    assert np.max(np.abs(back.coeffs - c.coeffs)) < 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(coeff_vectors(max_len=12, lo_range=20))
def test_roundtrip_property(c):
    back = analyze(synthesize(c, 128), c.window)
    scale = max(np.max(np.abs(c.coeffs)), 1e-30)
    assert np.max(np.abs(back.coeffs - c.coeffs)) < 1e-12 * scale


# ------------------------------------------------------------------- riesz

def test_riesz_kills_antianalytic():
    out = riesz_project(unit(-3))
    assert out.window == IndexWindow(0, 0)
    assert out.coeffs[0] == 0


def test_riesz_fixes_analytic():
    out = riesz_project(unit(2))
    assert out.window == IndexWindow(2, 2)
    assert coeff(out, 2) == 1 and coeff(out, 0) == 0


def test_riesz_linearity_example():
    c = cv(-1, [1.0, 0.0, 4.0])
    out = riesz_project(c)
    assert coeff(out, -1) == 0 and coeff(out, 1) == 4


@settings(max_examples=50, deadline=None)
@given(coeff_vectors())
def test_riesz_idempotent_bitwise(c):
    once = riesz_project(c)
    twice = riesz_project(once)
    assert twice.window == once.window
    assert np.array_equal(twice.coeffs, once.coeffs)


# -------------------------------------------------------------- truncate_pn

def test_truncate_keeps_leading_block():
    c = cv(-2, np.ones(6))
    out = truncate_pn(c, 2)
    assert out.window == IndexWindow(0, 1)
    assert np.array_equal(out.coeffs, [1, 1])


def test_truncate_beyond_degree_equals_riesz():
    c = cv(-2, [1.0, 2.0, 3.0, 4.0])
    out = truncate_pn(c, c.hi + 5)
    rp = riesz_project(c)
    assert all(coeff(out, k) == coeff(rp, k) for k in range(-3, out.hi + 2))


def test_truncate_misses_high_monomial():
    out = truncate_pn(unit(5), 3)
    assert np.all(out.coeffs == 0)


@settings(max_examples=40, deadline=None)
@given(coeff_vectors(), st.integers(1, 64))
def test_truncate_idempotent_and_commutes_with_riesz(c, n):
    t1 = truncate_pn(c, n)
    t2 = truncate_pn(t1, n)
    assert t2.window == t1.window and np.array_equal(t2.coeffs, t1.coeffs)
    t3 = truncate_pn(riesz_project(c), n)
    assert t3.window == t1.window and np.array_equal(t3.coeffs, t1.coeffs)


# ----------------------------------------------------------------- multiply

def test_multiply_monomials():
    out = multiply(unit(2), unit(-5))
    assert out.window == IndexWindow(-3, -3) and out.coeffs[0] == 1


def test_multiply_identity_element():
    b = cv(-1, [2.0, 3.0, 4.0])
    out = multiply(cv(0, [7.0]), b)
    assert np.array_equal(out.coeffs, 7.0 * b.coeffs)


def test_multiply_polynomial_algebra():
    out = multiply(cv(0, [1.0, 1.0]), cv(0, [1.0, -1.0]))
    assert out.window == IndexWindow(0, 2)
    assert np.allclose(out.coeffs, [1, 0, -1])


def _conv_oracle(a, b):
    out = np.zeros(len(a) + len(b) - 1, dtype=complex)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=30, deadline=None)
@given(coeff_vectors(max_len=128), coeff_vectors(max_len=128))
def test_multiply_matches_double_loop_oracle(a, b):
    out = multiply(a, b)
    oracle = _conv_oracle(a.coeffs, b.coeffs)
    scale = max(np.max(np.abs(oracle)), 1e-30)
    assert out.lo == a.lo + b.lo
    assert np.max(np.abs(out.coeffs - oracle)) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(coeff_vectors(), coeff_vectors(), coeff_vectors())
# |c| >> |b|: rounding in a*(b + c) is of order |a||c| eps, not |a||b||c| eps
@example(a=cv(0, [1e-8j]), b=cv(-5, [1e-8]), c=cv(-5, [8.0]))
def test_multiply_algebra_properties(a, b, c):
    scale = max(np.max(np.abs(a.coeffs)) * np.max(np.abs(b.coeffs))
                * max(np.max(np.abs(c.coeffs)), 1.0), 1e-30)
    dist_scale = max(np.max(np.abs(a.coeffs))
                     * max(np.max(np.abs(b.coeffs)), np.max(np.abs(c.coeffs))),
                     1e-30)
    ab = multiply(a, b)
    ba = multiply(b, a)
    assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= 1e-12 * scale
    lhs = multiply(multiply(a, b), c)
    rhs = multiply(a, multiply(b, c))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-10 * scale
    left = multiply(a, add(b, c))
    right = add(multiply(a, b), multiply(a, c))
    win = IndexWindow(min(left.lo, right.lo), max(left.hi, right.hi))
    assert np.max(np.abs(left.on_window(win) - right.on_window(win))) \
        <= 1e-11 * dist_scale


# ------------------------------------------------------------ validation/io

def test_coeff_vector_rejects_nan():
    with pytest.raises(ValueError):
        cv(0, [np.nan])


def test_grid_function_rejects_non_power_of_two():
    # a grid function is its sample array; every grid the library builds,
    # samples or analyzes has a power-of-two size >= 2
    for size in (0, 1, 12):
        for make in (lambda: grid_thetas(size),
                     lambda: synthesize(unit(0), size),
                     lambda: analyze(np.ones(size), IndexWindow(0, 0))):
            with pytest.raises(ValueError, match="not a power of two"):
                make()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analyze_rejects_non_finite_samples(bad):
    f = np.ones(8)
    f[3] = bad
    # the coefficients come out non-finite, and CoeffVector refuses them
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="finite"):
        analyze(f, IndexWindow(-1, 1))


def test_index_window_rejects_empty():
    with pytest.raises(ValueError):
        IndexWindow(3, 2)

