"""Toeplitz sections, the shifted-analytic representation and conjugations."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from toepnorm import (CoeffVector, IndexWindow, conjugated_toeplitz_matrix,
                      k0_matrix, outer_pair_exact, outer_pair_refined,
                      shift_order, symbol_sup, toeplitz_matrix)
from toepnorm import acceptance, operators
from toepnorm.acceptance import identity_residual, rank_ratio
from toepnorm.operators import _toeplitz, _toeplitz_times
from toepnorm.weights import PowerWeight

from reference import (apply_special_toeplitz, block, composition_bound,
                       conjugated_gemm, conjugated_reference, coeff,
                       cut_pair, k0_reference, multiply, on_window,
                       riesz_project, section)


def refined_pair(lam, N, factor=4):
    pw = PowerWeight(((0.0, lam),))
    return outer_pair_refined(pw, 8 * N, IndexWindow(0, factor * N - 1))


# ------------------------------------------------------------ toeplitz_matrix

def test_toeplitz_shift_symbol():
    T = toeplitz_matrix(CoeffVector(1, [1.0]), 3)
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.array_equal(T, expected)


def test_toeplitz_identity_symbol():
    T = toeplitz_matrix(CoeffVector(0, [1.0]), 5)
    assert np.array_equal(T, np.eye(5, dtype=complex))


def test_toeplitz_shifted_kind_consistency():
    # e_{-2} h with h = e_2 is the constant symbol.
    T = toeplitz_matrix(CoeffVector(-2, [0.0, 0.0, 1.0]), 4)
    assert np.array_equal(T, np.eye(4, dtype=complex))


def test_toeplitz_diagonal_constancy_and_nesting():
    rng = np.random.default_rng(5)
    a = CoeffVector(-2, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    T = toeplitz_matrix(a, 12)
    for d in range(-11, 12):
        vals = np.diagonal(T, -d)
        assert np.all(vals == vals[0])
    T2 = toeplitz_matrix(a, 24)
    assert np.array_equal(T, T2[:12, :12])


# ----------------------------------------------------------------- _toeplitz

# at rows, cols = 7, 4 (frequencies -3 .. 6) these runs lie inside, lie
# inside, clip low, clip both ends, clip high, clip low, miss, miss
@pytest.mark.parametrize("lo,hi", [(-2, 3), (2, 5), (-6, -1), (-9, 9),
                                   (4, 12), (-12, -3), (8, 11), (-11, -8)])
@pytest.mark.parametrize("rows,cols", [(7, 4), (4, 7), (1, 1), (6, 6)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_section_is_scipy_toeplitz_bitwise(lo, hi, rows, cols, kind):
    # scipy.linalg.toeplitz of the first column and row is the reference the
    # strided builder replaced; both only copy coefficients, so they agree
    # bitwise.  The matrix shows the frequencies 1 - cols .. rows - 1; runs
    # lie inside them, are clipped at their low end, at their high end or at
    # both, or miss them wholly (an all-zero matrix).  The run is float64 or
    # complex128, as a bracket block's or a section's is.
    rng = np.random.default_rng([hi - lo, rows, cols])
    coeffs = rng.standard_normal(hi - lo + 1)
    if kind == "complex":
        coeffs = coeffs + 1j * rng.standard_normal(hi - lo + 1)
    c = CoeffVector(lo, coeffs)
    col = on_window(c, IndexWindow(0, rows - 1))
    row = on_window(c, IndexWindow(1 - cols, 0))[::-1]
    if kind == "real":
        col, row = col.real, row.real
    S = _toeplitz(lo, coeffs, rows, cols)
    expected = toeplitz(col, row)
    assert S.dtype == expected.dtype == coeffs.dtype
    assert S.shape == (rows, cols)
    assert S.tobytes() == expected.tobytes()
    # estimation._block writes its leading columns into the result in place
    assert S.flags.c_contiguous and S.flags.writeable
    if hi < 1 - cols or lo > rows - 1:
        assert not S.any()


# ----------------------------------------------------- apply_special_toeplitz

def test_apply_special_simple_cases():
    one = CoeffVector(0, [1.0])
    zero = apply_special_toeplitz(1, one, one)
    assert np.all(zero.coeffs == 0)
    down = apply_special_toeplitz(1, one, CoeffVector(1, [1.0]))
    assert coeff(down, 0) == 1 and down.hi == 0


def test_apply_special_worked_example():
    h = CoeffVector(0, [1.0, 1.0])
    out = apply_special_toeplitz(2, h, h)
    assert coeff(out, 0) == 1 and np.all(out.coeffs[1:] == 0)


def test_apply_special_matches_projection_oracle():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5):
        h = CoeffVector(0, rng.standard_normal(4)
                        + 1j * rng.standard_normal(4))
        f = CoeffVector(1, rng.standard_normal(6)
                        + 1j * rng.standard_normal(6))
        fast = apply_special_toeplitz(n, h, f)
        full = CoeffVector(-n, h.coeffs.copy())
        oracle = riesz_project(multiply(full, f))
        for k in range(0, max(fast.hi, oracle.hi) + 1):
            assert coeff(fast, k) == coeff(oracle, k)


def test_apply_special_rejects_nonanalytic():
    with pytest.raises(ValueError):
        apply_special_toeplitz(1, CoeffVector(-1, [1.0, 1.0]),
                               CoeffVector(0, [1.0]))
    with pytest.raises(ValueError):
        apply_special_toeplitz(1, CoeffVector(0, [1.0]),
                               CoeffVector(-1, [1.0]))


def test_column_consistency_with_sections():
    rng = np.random.default_rng(13)
    n, N = 2, 24
    h = CoeffVector(0, rng.standard_normal(5) + 1j * rng.standard_normal(5))
    T = toeplitz_matrix(CoeffVector(-n, h.coeffs), N)
    win = IndexWindow(0, N - 1)
    for j in range(N):
        ej = CoeffVector(j, [1.0])
        col = on_window(apply_special_toeplitz(n, h, ej), win)
        assert np.max(np.abs(T[:, j] - col)) <= 1e-12


# ------------------------------------------------------------------ k0_matrix

def test_k0_vanishes_for_constant_weight():
    a = CoeffVector(-2, [1.0, 2.0, 0.5])
    W = outer_pair_exact(PowerWeight(), IndexWindow(0, 63))
    K0 = k0_matrix(a, W, 16)
    assert np.max(np.abs(K0)) == 0.0


def test_k0_rank_bounds():
    rng = np.random.default_rng(17)
    for n, lam, N in ((1, 0.3, 64), (3, -0.3, 128)):
        a = CoeffVector(-n, rng.standard_normal(5)
                        + 1j * rng.standard_normal(5))
        W = refined_pair(lam, N)
        K0 = k0_matrix(a, W, N)
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
    symbols = {n: acceptance.seeded_symbol(rng, n) for n in (1, 2, 3)}
    for n in (1, 2, 3):
        for lam in (-0.3, 0.3):
            _, sv = identity_residual(symbols[n], PowerWeight(((0.0, lam),)),
                                      N)
            K0 = seen[-1]
            dense = np.linalg.svd(K0, compute_uv=False)
            nz = np.flatnonzero(np.any(K0, axis=0))
            assert sv.shape == (N,) and len(nz) == n
            assert np.max(np.abs(sv - dense)) <= 1e-14 * dense[0]
            assert np.all(sv[len(nz):] == 0.0)


def test_k0_singular_values_for_constant_weight_are_zero():
    _, sv = identity_residual(CoeffVector(-2, [1.0, 2.0, 0.5]), PowerWeight(),
                              32)
    assert sv.shape == (32,) and np.all(sv == 0.0)
    assert rank_ratio(sv, 2) == 0.0


def test_k0_rank_bound_fails_on_a_leaked_column(monkeypatch):
    # a nonzero column past the first n must reach the rank clause
    def leaky_k0(a, W, N):
        K0 = k0_matrix(a, W, N)
        K0[:, n + 5] = 1e-3 * np.max(np.abs(K0))
        return K0

    n, a, pw = 1, CoeffVector(-1, [1.0, 0.5]), PowerWeight(((0.0, 0.3),))
    assert acceptance.identity_clauses(a, pw, 32)[1]["k0_rank_bound"].passed
    monkeypatch.setattr(acceptance, "k0_matrix", leaky_k0)
    cells, checks = acceptance.identity_clauses(a, pw, 32)
    assert not checks["k0_rank_bound"].passed
    assert cells["rank_ratio"] > 1e-8 and cells["k0_rank"] == n + 1


def test_k0_rank_bound_fails_on_any_column_of_an_analytic_symbol(
        monkeypatch):
    # n = 0 for an analytic symbol, so a nonzero column 0 of K0 is a leak
    def leaky_k0(a, W, N):
        K0 = k0_matrix(a, W, N)
        K0[:, 0] = 1e-3
        return K0

    a, pw = CoeffVector(0, [1.0, 0.5]), PowerWeight(((0.0, 0.3),))
    assert acceptance.identity_clauses(a, pw, 32)[1]["k0_rank_bound"].passed
    monkeypatch.setattr(acceptance, "k0_matrix", leaky_k0)
    cells, checks = acceptance.identity_clauses(a, pw, 32)
    assert not checks["k0_rank_bound"].passed
    assert cells["rank_ratio"] == 1.0 and cells["k0_rank"] == 1


# ------------------------------------------------- conjugated_toeplitz_matrix

def test_conjugation_by_constant_weight_is_identity_map():
    a = CoeffVector(-1, [1.0, 0.0, 0.5])
    N = 16
    T = toeplitz_matrix(a, N)
    W = outer_pair_exact(PowerWeight(), IndexWindow(0, 63))
    C = conjugated_toeplitz_matrix(a, W, N)
    assert np.array_equal(C, T)


def test_conjugation_of_constant_symbol_is_identity_matrix():
    W = outer_pair_exact(PowerWeight(((0.0, 0.3),)), IndexWindow(0, 127))
    C = conjugated_toeplitz_matrix(CoeffVector(0, [1.0]), W, 32)
    assert np.max(np.abs(C - np.eye(32))) < 1e-8


def test_conjugation_identity_small():
    N = 128
    rel, _ = identity_residual(CoeffVector(-1, [1.0]),
                               PowerWeight(((0.0, 0.3),)), N)
    assert rel <= 1e-6


def test_conjugation_identity_decreases_with_section_size():
    rng = np.random.default_rng(23)
    a = CoeffVector(-4, rng.standard_normal(9) + 1j * rng.standard_normal(9))
    for lam in (0.3, -0.3):
        res = {N: identity_residual(a, PowerWeight(((0.0, lam),)), N)[0]
               for N in (128, 256)}
        assert res[128] <= 1e-6
        assert res[256] < res[128]


def identity_sections():
    """(a, W, N) of the suite's 12 identity cases (run_conjugation_identity,
    at N = 128 and 256), with the pair that identity_residual builds."""
    rng = np.random.default_rng(acceptance._SEED)
    symbols = {n: acceptance.seeded_symbol(rng, n) for n in (1, 2, 3)}
    return [(symbols[n],
             outer_pair_refined(PowerWeight(((0.0, lam),)), 8 * N,
                                IndexWindow(0, N + n - 1)), N)
            for N in (128, 256) for n in (1, 2, 3) for lam in (-0.3, 0.3)]


def composition_cases():
    """The suite's identity sections, a symbol with an interior zero
    coefficient (skipped by the banded product) and one with lo >= 0 (no
    extra rows of L_{1/W})."""
    W = refined_pair(0.3, 64)
    return identity_sections() + [
        (CoeffVector(-2, [1.0, 0.0, 0.5j, 0.0, -0.3]), W, 64),
        (CoeffVector(1, [0.5, 1j, 0.0, 0.2]), W, 64)]


def test_composition_matches_dense_gemms_within_rounding():
    for a, W, N in composition_cases():
        C = conjugated_toeplitz_matrix(a, W, N)
        dev = np.abs(C - conjugated_gemm(a, W, N))
        assert np.all(dev <= composition_bound(a, W, N))


def test_composition_without_blas_names_is_one_gemm(monkeypatch):
    # where NumPy's BLAS lacks ztrmm, only the triangular product changes:
    # it is one GEMM of L_W with the banded product, to the bit, and stays
    # within the bound of two summation orders of the dense GEMMs
    monkeypatch.setattr(operators, "_numpy_lapack", lambda: None)
    for a, W, N in composition_cases():
        n = max(0, -a.lo)
        C = conjugated_toeplitz_matrix(a, W, N)
        inner = _toeplitz_times(a, section(W.winv_coeffs, N + n, N))
        assert C.tobytes() == (section(W.w_coeffs, N, N) @ inner).tobytes()
        dev = np.abs(C - conjugated_gemm(a, W, N))
        assert np.all(dev <= composition_bound(a, W, N))


# ------------------------------------ product builders against column loops

def reference_symbols():
    """2e_-2 + e_1 + 0.3e_3 (lo < 0 < hi) and e_{-3} h, each with the
    (n, h) of a = e_{-n} h that the column reference of K0 takes."""
    c = np.array([2.0, 0.0, 0.0, 1.0, 0.0, 0.3])
    rng = np.random.default_rng(37)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return [(CoeffVector(-2, c), 2, CoeffVector(0, c)),
            (CoeffVector(-3, h), 3, CoeffVector(0, h))]


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
            K0 = k0_matrix(a, W, N)
            assert K0.shape == (N, N)
            assert np.max(np.abs(K0 - k0_reference(n, h, W, N))) <= tol


def test_conjugated_section_needs_only_n_plus_n_outer_coefficients():
    N = 24
    for a, _, _ in reference_symbols():
        K = N + shift_order(a)
        for W in reference_pairs(N):
            assert np.array_equal(conjugated_toeplitz_matrix(a, cut_pair(W, K),
                                                             N),
                                  conjugated_toeplitz_matrix(a, W, N))


@pytest.mark.parametrize("build,need", [
    (conjugated_toeplitz_matrix, lambda a, N: N + shift_order(a)),
    (k0_matrix, lambda a, N: N + shift_order(a))])
def test_section_builders_refuse_a_short_pair(build, need):
    # one coefficient short of what the section reads is a different,
    # truncated W, not a zero-padded one: refused, not built
    N = 24
    for a, _, _ in reference_symbols() + [(CoeffVector(1, [1.0, 0.5]),
                                           None, None)]:
        W = reference_pairs(N)[1]
        build(a, cut_pair(W, need(a, N)), N)
        with pytest.raises(ValueError, match="outer pair window too short "
                           f"for this section: need length >= {need(a, N)}"):
            build(a, cut_pair(W, need(a, N) - 1), N)


def test_section_norm_bounded_by_symbol_sup():
    rng = np.random.default_rng(29)
    for _ in range(3):
        a = CoeffVector(-2, rng.standard_normal(6))
        T = toeplitz_matrix(a, 128)
        smax = np.linalg.svd(T, compute_uv=False)[0]
        assert smax <= symbol_sup(a) + 1e-9


# ---------------------------------------------------------------- shift_order

def test_shift_order_examples():
    # a = e_{-n} h with h = e_n a analytic: n = -lo below 0, else 0
    assert shift_order(CoeffVector(-2, [1.0, 0.0, 0.0, 3.0])) == 2
    for lo in (0, 1, 5):
        assert shift_order(CoeffVector(lo, [2.0, 0.0, 1.0])) == 0


def test_k0_of_an_analytic_symbol_is_zero():
    # n = 0 and P_0 = 0: K0 is the N x N zero matrix
    W = refined_pair(0.3, 32)
    for a in (CoeffVector(0, [1.0, 0.5j]), CoeffVector(1, [2.0, 0.0, 1.0])):
        K0 = k0_matrix(a, W, 32)
        assert K0.shape == (32, 32) and np.all(K0 == 0.0)
