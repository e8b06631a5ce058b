"""Toeplitz sections, the shifted-analytic representation and conjugations."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from toepnorm import (CoeffVector, IndexWindow, OuterPair,
                      conjugated_toeplitz_matrix, csa_decompose, k0_matrix,
                      outer_pair_exact, outer_pair_refined, symbol_sup,
                      toeplitz_matrix)
from toepnorm import acceptance, operators
from toepnorm.acceptance import identity_residual, rank_ratio
from toepnorm.operators import _section, _toeplitz
from toepnorm.weights import PowerWeight

from reference import (apply_special_toeplitz, block, composition_bound,
                       conjugated_gemm, conjugated_reference, coeff,
                       k0_reference, multiply, riesz_project, unit)


def cv(lo, coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return CoeffVector(IndexWindow(lo, lo + len(coeffs) - 1), coeffs)


def refined_pair(lam, N, factor=4):
    pw = PowerWeight(((0.0, lam),))
    return outer_pair_refined(pw, 8 * N, IndexWindow(0, factor * N - 1))


# ------------------------------------------------------------ toeplitz_matrix

def test_toeplitz_shift_symbol():
    T = toeplitz_matrix(cv(1, [1.0]), 3)
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.array_equal(T, expected)


def test_toeplitz_identity_symbol():
    T = toeplitz_matrix(cv(0, [1.0]), 5)
    assert np.array_equal(T, np.eye(5, dtype=complex))


def test_toeplitz_shifted_kind_consistency():
    # e_{-2} h with h = e_2 is the constant symbol.
    T = toeplitz_matrix(cv(-2, [0.0, 0.0, 1.0]), 4)
    assert np.array_equal(T, np.eye(4, dtype=complex))


def test_toeplitz_diagonal_constancy_and_nesting():
    rng = np.random.default_rng(5)
    a = cv(-2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    T = toeplitz_matrix(a, 12)
    for d in range(-11, 12):
        vals = np.diagonal(T, -d)
        assert np.all(vals == vals[0])
    T2 = toeplitz_matrix(a, 24)
    assert np.array_equal(T, T2[:12, :12])


# ------------------------------------------------------------------ _section

@pytest.mark.parametrize("lo,hi", [(-2, 3), (2, 5), (-6, -1)])
@pytest.mark.parametrize("rows,cols", [(7, 4), (4, 7), (1, 1), (6, 6)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_section_is_scipy_toeplitz_bitwise(lo, hi, rows, cols, kind):
    # scipy.linalg.toeplitz of the first column and row is the reference the
    # strided builder replaced; both only copy coefficients, so they agree
    # bitwise.  Windows straddle 0, lie above it and lie below it.  The
    # complex case is _section; the real one runs its sliding-window core,
    # _toeplitz, on float64 values, as estimation._block does for a real
    # block.
    rng = np.random.default_rng([hi - lo, rows, cols])
    coeffs = rng.standard_normal(hi - lo + 1)
    if kind == "complex":
        coeffs = coeffs + 1j * rng.standard_normal(hi - lo + 1)
    c = cv(lo, coeffs)
    col = c.on_window(IndexWindow(0, rows - 1))
    row = c.on_window(IndexWindow(1 - cols, 0))[::-1]
    if kind == "real":
        col, row = col.real, row.real
        vals = c.on_window(IndexWindow(1 - cols, rows - 1)).real.copy()
        S = _toeplitz(vals, cols)
    else:
        S = _section(c, rows, cols)
    expected = toeplitz(col, row)
    assert S.dtype == expected.dtype == coeffs.dtype
    assert S.shape == (rows, cols)
    assert S.tobytes() == expected.tobytes()
    # estimation._block writes its leading columns into the result in place
    assert S.flags.c_contiguous and S.flags.writeable


# ----------------------------------------------------- apply_special_toeplitz

def test_apply_special_simple_cases():
    zero = apply_special_toeplitz(1, unit(0), unit(0))
    assert np.all(zero.coeffs == 0)
    down = apply_special_toeplitz(1, unit(0), unit(1))
    assert coeff(down, 0) == 1 and down.hi == 0


def test_apply_special_worked_example():
    out = apply_special_toeplitz(2, cv(0, [1.0, 1.0]), cv(0, [1.0, 1.0]))
    assert coeff(out, 0) == 1 and np.all(out.coeffs[1:] == 0)


def test_apply_special_matches_projection_oracle():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5):
        h = cv(0, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        f = cv(1, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        fast = apply_special_toeplitz(n, h, f)
        full = cv(-n, h.coeffs.copy())
        oracle = riesz_project(multiply(full, f))
        for k in range(0, max(fast.hi, oracle.hi) + 1):
            assert coeff(fast, k) == coeff(oracle, k)


def test_apply_special_rejects_nonanalytic():
    with pytest.raises(ValueError):
        apply_special_toeplitz(1, cv(-1, [1.0, 1.0]), unit(0))
    with pytest.raises(ValueError):
        apply_special_toeplitz(1, unit(0), cv(-1, [1.0]))


def test_column_consistency_with_sections():
    rng = np.random.default_rng(13)
    n, N = 2, 24
    h = cv(0, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    T = toeplitz_matrix(cv(-n, h.coeffs), N)
    win = IndexWindow(0, N - 1)
    for j in range(N):
        col = apply_special_toeplitz(n, h, unit(j)).on_window(win)
        assert np.max(np.abs(T[:, j] - col)) <= 1e-12


# ------------------------------------------------------------------ k0_matrix

def test_k0_vanishes_for_constant_weight():
    h = cv(0, [1.0, 2.0, 0.5])
    W = outer_pair_exact(PowerWeight(), IndexWindow(0, 63))
    K0 = k0_matrix(2, h, W, 16)
    assert np.max(np.abs(K0)) == 0.0


def test_k0_rank_bounds():
    rng = np.random.default_rng(17)
    for n, lam, N in ((1, 0.3, 64), (3, -0.3, 128)):
        h = cv(0, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        W = refined_pair(lam, N)
        K0 = k0_matrix(n, h, W, N)
        sv = np.linalg.svd(K0, compute_uv=False)
        assert sv[n] / sv[0] <= 1e-8
        # columns beyond the first n vanish identically
        assert np.max(np.abs(K0[:, n:])) == 0.0


# ------------------------------------ K0 singular values of identity_residual

@pytest.mark.parametrize("N", (128, 256))
def test_k0_singular_values_match_the_dense_svd(N, monkeypatch):
    # the suite's 12 (n, lambda, N) cases of run_conjugation_identity
    seen = []

    def recording_k0(*args):
        seen.append(k0_matrix(*args))
        return seen[-1]

    monkeypatch.setattr(acceptance, "k0_matrix", recording_k0)
    rng = np.random.default_rng(acceptance._SEED)
    hs = {n: acceptance.seeded_h(rng) for n in (1, 2, 3)}
    for n in (1, 2, 3):
        for lam in (-0.3, 0.3):
            _, sv = identity_residual(n, hs[n], PowerWeight(((0.0, lam),)), N)
            K0 = seen[-1]
            dense = np.linalg.svd(K0, compute_uv=False)
            nz = np.flatnonzero(np.any(K0, axis=0))
            assert sv.shape == (N,) and len(nz) == n
            assert np.max(np.abs(sv - dense)) <= 1e-14 * dense[0]
            assert np.all(sv[len(nz):] == 0.0)


def test_k0_singular_values_for_constant_weight_are_zero():
    _, sv = identity_residual(2, cv(0, [1.0, 2.0, 0.5]), PowerWeight(), 32)
    assert sv.shape == (32,) and np.all(sv == 0.0)
    assert rank_ratio(sv, 2) == 0.0


def test_k0_rank_bound_fails_on_a_leaked_column(monkeypatch):
    # a nonzero column past the first n must reach the rank clause
    def leaky_k0(n, h, W, N):
        K0 = k0_matrix(n, h, W, N)
        K0[:, n + 5] = 1e-3 * np.max(np.abs(K0))
        return K0

    n, h, pw = 1, cv(0, [1.0, 0.5]), PowerWeight(((0.0, 0.3),))
    assert acceptance.identity_clauses(n, h, pw, 32)[1][
        "k0_rank_bound"].passed
    monkeypatch.setattr(acceptance, "k0_matrix", leaky_k0)
    cells, checks = acceptance.identity_clauses(n, h, pw, 32)
    assert not checks["k0_rank_bound"].passed
    assert cells["rank_ratio"] > 1e-8 and cells["k0_rank"] == n + 1


# ------------------------------------------------- conjugated_toeplitz_matrix

def test_conjugation_by_constant_weight_is_identity_map():
    a = cv(-1, [1.0, 0.0, 0.5])
    N = 16
    T = toeplitz_matrix(a, N)
    W = outer_pair_exact(PowerWeight(), IndexWindow(0, 63))
    C = conjugated_toeplitz_matrix(a, W, N)
    assert np.array_equal(C, T)


def test_conjugation_of_constant_symbol_is_identity_matrix():
    W = outer_pair_exact(PowerWeight(((0.0, 0.3),)), IndexWindow(0, 127))
    C = conjugated_toeplitz_matrix(cv(0, [1.0]), W, 32)
    assert np.max(np.abs(C - np.eye(32))) < 1e-8


def test_conjugation_identity_small():
    N = 128
    rel, _ = identity_residual(1, unit(0), PowerWeight(((0.0, 0.3),)), N)
    assert rel <= 1e-6


def test_conjugation_identity_decreases_with_section_size():
    rng = np.random.default_rng(23)
    h = cv(0, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    for lam in (0.3, -0.3):
        res = {N: identity_residual(4, h, PowerWeight(((0.0, lam),)), N)[0]
               for N in (128, 256)}
        assert res[128] <= 1e-6
        assert res[256] < res[128]


def identity_sections():
    """(a, W, N) of the suite's 12 identity cases (run_conjugation_identity,
    at N = 128 and 256), with the pair that identity_residual builds."""
    rng = np.random.default_rng(acceptance._SEED)
    hs = {n: acceptance.seeded_h(rng) for n in (1, 2, 3)}
    return [(cv(-n, hs[n].coeffs),
             outer_pair_refined(PowerWeight(((0.0, lam),)), 8 * N,
                                IndexWindow(0, N + n - 1)), N)
            for N in (128, 256) for n in (1, 2, 3) for lam in (-0.3, 0.3)]


def composition_cases():
    """The suite's identity sections, a symbol with an interior zero
    coefficient (skipped by the banded product) and one with lo >= 0 (no
    extra rows of L_{1/W})."""
    W = refined_pair(0.3, 64)
    return identity_sections() + [
        (cv(-2, [1.0, 0.0, 0.5j, 0.0, -0.3]), W, 64),
        (cv(1, [0.5, 1j, 0.0, 0.2]), W, 64)]


def test_composition_matches_dense_gemms_within_rounding():
    for a, W, N in composition_cases():
        C = conjugated_toeplitz_matrix(a, W, N)
        dev = np.abs(C - conjugated_gemm(a, W, N))
        assert np.all(dev <= composition_bound(a, W, N))


def test_composition_without_blas_names_is_the_dense_gemms(monkeypatch):
    # where NumPy's BLAS lacks ztrmm, both products are GEMMs, to the bit
    monkeypatch.setattr(operators, "_numpy_lapack", lambda: None)
    for a, W, N in composition_cases():
        assert conjugated_toeplitz_matrix(a, W, N).tobytes() \
            == conjugated_gemm(a, W, N).tobytes()


# ------------------------------------ product builders against column loops

def reference_symbols():
    """2e_-2 + e_1 + 0.3e_3 (lo < 0 < hi) and e_{-3} h, with (n, h) for K0."""
    a = cv(-2, [2.0, 0.0, 0.0, 1.0, 0.0, 0.3])
    rng = np.random.default_rng(37)
    h = cv(0, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    return [(a, *csa_decompose(a)), (cv(-3, h.coeffs), 3, h)]


def reference_pairs(N):
    pw = PowerWeight(((0.0, 0.3),))
    win = IndexWindow(0, 4 * N - 1)
    return [outer_pair_refined(pw, 512, win), outer_pair_exact(pw, win)]


@pytest.mark.parametrize("N", (2, 24, 40))  # N = 2 < n = 3 for e_{-3} h
def test_sections_match_column_reference(N):
    for a, n, h in reference_symbols():
        tol = 1e-13 * np.max(np.abs(toeplitz_matrix(a, N)))
        for W in reference_pairs(N):
            C = conjugated_reference(a, W, N)
            assert np.max(np.abs(conjugated_toeplitz_matrix(a, W, N) - C)) \
                <= tol
            # n = -lo: cutoffs inside, at and past the non-Toeplitz columns
            for m in (1, n, n + 1):
                if m < N:
                    assert np.max(np.abs(block(a, W, N, m) - C[:, m:])) \
                        <= tol
                    # one column only, cut inside the non-Toeplitz ones
                    assert np.max(np.abs(block(a, W, N, m, 1)
                                         - C[:, m:m + 1])) <= tol
            K0 = k0_matrix(n, h, W, N)
            assert K0.shape == (N, N)
            assert np.max(np.abs(K0 - k0_reference(n, h, W, N))) <= tol


def test_conjugated_section_needs_only_n_plus_n_outer_coefficients():
    N = 24
    for a, _, _ in reference_symbols():
        K = N + max(0, -a.lo)
        for W in reference_pairs(N):
            short = OuterPair(
                CoeffVector(IndexWindow(0, K - 1), W.w_coeffs.coeffs[:K]),
                CoeffVector(IndexWindow(0, K - 1), W.winv_coeffs.coeffs[:K]))
            assert np.array_equal(conjugated_toeplitz_matrix(a, short, N),
                                  conjugated_toeplitz_matrix(a, W, N))


def test_section_norm_bounded_by_symbol_sup():
    rng = np.random.default_rng(29)
    for _ in range(3):
        a = cv(-2, rng.standard_normal(6))
        T = toeplitz_matrix(a, 128)
        smax = np.linalg.svd(T, compute_uv=False)[0]
        assert smax <= symbol_sup(a) + 1e-9


# -------------------------------------------------------------- csa_decompose

def test_csa_decompose_examples():
    n, h = csa_decompose(cv(-2, [1.0, 0.0, 0.0, 3.0]))
    assert n == 2
    assert coeff(h, 0) == 1 and coeff(h, 3) == 3

    analytic = cv(1, [2.0, 0.0, 1.0])
    n2, h2 = csa_decompose(analytic)
    assert n2 == 1
    assert coeff(h2, 2) == 2 and coeff(h2, 4) == 1


def test_csa_decompose_roundtrip_bitwise():
    rng = np.random.default_rng(31)
    a = cv(-3, rng.standard_normal(7) + 1j * rng.standard_normal(7))
    n, h = csa_decompose(a)
    rebuilt = cv(-n, h.coeffs)
    for k in range(min(rebuilt.lo, a.lo), max(rebuilt.hi, a.hi) + 1):
        assert coeff(rebuilt, k) == coeff(a, k)
