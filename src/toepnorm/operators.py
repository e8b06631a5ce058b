"""Finite sections of Toeplitz operators and their weighted conjugations.

A Toeplitz operator with bounded symbol a acts on analytic coefficient
vectors by f -> P(a f), so its matrix in the monomial basis has entries
a-hat(i - j).  This module builds N x N compressions of:

* the operator itself (``toeplitz_matrix``),
* its conjugation M_W T(a) M_{1/W} by the outer function of a weight
  (``conjugated_toeplitz_matrix``), and
* the finite-rank correction K0 that separates the two
  (``k0_matrix``), satisfying  M_W T(e_{-n} h) M_{1/W} = T(e_{-n} h) + K0.

Each section is a plain ndarray, built as a product of the sections of the
operator's factors: multiplication by an analytic function is a
lower-triangular Toeplitz matrix, T(a) a Toeplitz matrix, P_n a restriction
to the first n rows and T(e_{-n}) the removal of the first n rows.  No
section is assembled column by column.  The conjugated section multiplies
its factors through their zero patterns (a banded T(a), a triangular
multiplication by W), in the BLAS that NumPy links (``_numpy_lapack``, the
one loader of its BLAS and LAPACK routines, which ``estimation`` shares).

A symbol is a finite Laurent polynomial, passed as its ``CoeffVector``.
Written as e_{-n} h with analytic h, it admits the exact representation
T(e_{-n} h) f = e_{-n} (I - P_n)(h f); ``csa_decompose`` returns that
(n, h), the form in which ``k0_matrix`` takes the symbol.
"""

from __future__ import annotations

import ctypes
import functools
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import CoeffVector, IndexWindow, synthesize
from .weights import OuterPair


class _Lapack(NamedTuple):
    """NumPy's own BLAS and LAPACK routines, bound by ``_numpy_lapack``."""

    band: dict   # sbtrd/hbtrd by dtype: band storage to tridiagonal
    dense: dict  # sytrd/hetrd by dtype: dense storage to tridiagonal
    pttrf: object  # LDL^T of a positive definite tridiagonal
    trmm: object   # complex triangular times general matrix
    herk: object   # complex Hermitian rank-k product B^H B


@functools.cache
def _numpy_lapack() -> _Lapack | None:
    """NumPy's own BLAS and LAPACKE routines, or None when NumPy's library
    does not export them all: the Householder reductions of a Hermitian
    matrix to a real symmetric tridiagonal from band storage (sbtrd/hbtrd)
    and from dense storage (sytrd/hetrd), each keyed by dtype, and the
    LDL^T factorisation of a symmetric positive definite tridiagonal
    (pttrf), for the top Gram eigenvalue of ``estimation``; the complex
    triangular product (ztrmm) of ``conjugated_toeplitz_matrix``; and the
    complex Hermitian rank-k product (zherk) of the dense complex Gram
    matrix.

    NumPy's wheels link a scipy-openblas BLAS and LAPACK with 64-bit
    integers whose symbols carry a ``64_`` suffix; loading the extension
    module that already links it resolves them through its own
    dependencies, so no second BLAS is loaded.  Only these suffixed names
    are bound: the suffix fixes the integer width, so no ABI is guessed.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        band = {np.dtype(np.float64): lib.scipy_LAPACKE_dsbtrd64_,
                np.dtype(np.complex128): lib.scipy_LAPACKE_zhbtrd64_}
        dense = {np.dtype(np.float64): lib.scipy_LAPACKE_dsytrd64_,
                 np.dtype(np.complex128): lib.scipy_LAPACKE_zhetrd64_}
        pttrf = lib.scipy_LAPACKE_dpttrf64_
        trmm = lib.scipy_cblas_ztrmm64_
        herk = lib.scipy_cblas_zherk64_
    except (OSError, AttributeError):
        return None
    i64, ptr, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
    enum, dbl = ctypes.c_int, ctypes.c_double
    for f in band.values():
        # (layout, vect, uplo, n, kd, ab, ldab, d, e, q, ldq) -> info
        f.argtypes = [enum, char, char, i64, i64, ptr, i64, ptr, ptr, ptr,
                      i64]
    for f in dense.values():
        # (layout, uplo, n, a, lda, d, e, tau) -> info
        f.argtypes = [enum, char, i64, ptr, i64, ptr, ptr, ptr]
    pttrf.argtypes = [i64, ptr, ptr]  # (n, d, e) -> info
    for f in (*band.values(), *dense.values(), pttrf):
        f.restype = i64
    # (layout, side, uplo, trans, diag, m, n, &alpha, a, lda, b, ldb)
    trmm.argtypes = [enum] * 5 + [i64, i64, ptr, ptr, i64, ptr, i64]
    # (layout, uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
    herk.argtypes = [enum] * 3 + [i64, i64, dbl, ptr, i64, dbl, ptr, i64]
    trmm.restype = herk.restype = None
    return _Lapack(band, dense, pttrf, trmm, herk)


# CBLAS enumerators
_ROW_MAJOR, _LEFT, _UPPER, _LOWER = 101, 141, 121, 122
_NO_TRANS, _CONJ_TRANS, _NON_UNIT = 111, 113, 131


def _section(c: CoeffVector, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix with entries c-hat(i - j), zero outside c's window.

    For analytic c this is the lower-triangular matrix of multiplication by
    c, compressed to the first rows/cols monomials.
    """
    return _toeplitz(c.on_window(IndexWindow(1 - cols, rows - 1)), cols)


def _toeplitz(vals: np.ndarray, cols: int) -> np.ndarray:
    """The rows x cols matrix, rows = len(vals) - cols + 1, with entries
    vals[i - j + cols - 1] in vals' dtype.  Row i is the slice
    rows-1-i .. rows-2-i+cols of the reversed values, so the matrix is a
    copy of the reversed row order of their sliding windows (the inner
    stride stays positive, which copies faster than a reversed one)."""
    return sliding_window_view(vals[::-1].copy(), cols)[::-1].copy()


def toeplitz_matrix(a: CoeffVector, N: int) -> np.ndarray:
    """N x N section with entries a-hat(i - j), constant along diagonals."""
    if N < 1:
        raise ValueError("section size must be >= 1")
    return _section(a, N, N)


def k0_matrix(n: int, h: CoeffVector, W: OuterPair, N: int) -> np.ndarray:
    """Section of the finite-rank correction

        K0 = T(e_{-n}) P_n M_h  -  T(e_{-n}) M_W P_n M_{h/W}.

    The first term vanishes identically because e_{-n} P_n maps into
    negative frequencies only, so the section is the product of the factors
    of the second term: the lower-triangular section of M_{h/W} keeps its
    rows < n (P_n), the product of the n x n corner of M_h and the first n
    rows of M_{1/W}; the columns < n of the section of M_W take them to
    rows 0..N+n-1, and T(e_{-n}) drops the first n of those.  The result is
    returned as a full N x N matrix and not sliced to its first n columns:
    columns >= n come out of the product as exact zeros, so the rank bound
    checked on K0 is a property of the composition, not of its storage.
    """
    if N < 1:
        raise ValueError("section size must be >= 1")
    if n < 1:
        raise ValueError("shift order n must be >= 1")
    if h.lo != 0:
        raise ValueError("h must be analytic (window starting at 0)")
    pn_hw = _section(h, n, n) @ _section(W.winv_coeffs, n, N)
    return -(_section(W.w_coeffs, N + n, n)[n:] @ pn_hw)


def conjugated_toeplitz_matrix(a: CoeffVector, W: OuterPair, N: int) -> np.ndarray:
    """Section of the conjugated operator M_W T(a) M_{1/W}.

    Column j is the window [0, N-1] of P(W . P(a . P(W^{-1} e_j))), built as
    the product L_W T_a L_{1/W} of sections of the three factors: L_W is
    N x N, T_a is N x (N+n) with n = max(0, -lo), and L_{1/W} is
    (N+n) x N.  Rows < N of the composition reach coefficients of W and 1/W
    below N+n only; shorter outer windows count as zero-padded, and that
    finite window is the only truncation.

    Each product is taken through its factor's zero pattern: T_a is zero
    outside a's window, so T_a L_{1/W} adds one scaled, shifted row block of
    L_{1/W} per nonzero coefficient of a (``_toeplitz_times``); W's window
    starts at 0, so L_W is lower triangular and multiplies that product in
    place (ztrmm).  Nothing is assumed about the result.  The summation
    order of neither product depends on the BLAS thread count.  Where
    NumPy's BLAS does not export ztrmm (``_numpy_lapack`` is None), both
    products are dense GEMMs, whose order can.
    """
    if N < 1:
        raise ValueError("section size must be >= 1")
    n = max(0, -a.lo)
    lapack = _numpy_lapack()
    if lapack is None:
        inner = _section(a, N, N + n) @ _section(W.winv_coeffs, N + n, N)
        return _section(W.w_coeffs, N, N) @ inner
    inner = _toeplitz_times(a, _section(W.winv_coeffs, N + n, N))
    L_w = _section(W.w_coeffs, N, N)
    one = np.ones(1, dtype=complex)
    lapack.trmm(_ROW_MAJOR, _LEFT, _LOWER, _NO_TRANS, _NON_UNIT, N, N,
                one.ctypes.data, L_w.ctypes.data, N, inner.ctypes.data, N)
    return inner


def _toeplitz_times(a: CoeffVector, X: np.ndarray) -> np.ndarray:
    """T_a X for the (N + n) x N matrix X, n = max(0, -lo), T_a the
    N x (N + n) section of ``_section``: row i is the sum over the
    frequencies s of a, in increasing order, of a_s X[i - s], so each
    nonzero coefficient adds one scaled, shifted row block."""
    N = X.shape[1]
    out = np.zeros((N, N), dtype=complex)
    term = np.empty_like(out)
    for s, c in zip(range(a.lo, a.hi + 1), a.coeffs):
        top = max(s, 0)  # rows i >= s reach a_s
        if c and top < N:
            np.multiply(c, X[top - s:N - s], out=term[top:])
            out[top:] += term[top:]
    return out


def csa_decompose(a: CoeffVector) -> tuple[int, CoeffVector]:
    """Rewrite a finite Laurent symbol as e_{-n} h.

    n = max(1, -lowest frequency of a); h = e_n * a is analytic and the
    reconstruction e_{-n} h reproduces the input coefficientwise.
    """
    n = max(1, -a.lo)
    shifted = CoeffVector(IndexWindow(a.lo + n, a.hi + n), a.coeffs)
    win = IndexWindow(0, max(shifted.hi, 0))
    return n, CoeffVector(win, shifted.on_window(win))


def symbol_sup(a: CoeffVector) -> float:
    """Dense-grid supremum of |a| over 2^16 sample points."""
    return float(np.max(np.abs(synthesize(a, 1 << 16))))
