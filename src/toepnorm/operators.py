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
section is assembled column by column.

A symbol is a finite Laurent polynomial, passed as its ``CoeffVector``.
Written as e_{-n} h with analytic h, it admits the exact representation
T(e_{-n} h) f = e_{-n} (I - P_n)(h f); ``csa_decompose`` returns that
(n, h), the form in which ``k0_matrix`` takes the symbol.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import CoeffVector, IndexWindow, synthesize
from .weights import OuterPair


def _section(c: CoeffVector, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix with entries c-hat(i - j), zero outside c's window.

    For analytic c this is the lower-triangular matrix of multiplication by
    c, compressed to the first rows/cols monomials.  Row i is the slice
    rows-1-i .. rows-2-i+cols of the reversed value window, so the matrix is
    a copy of the reversed row order of its sliding windows (the inner
    stride stays positive, which copies faster than a reversed one).
    """
    vals = c.on_window(IndexWindow(1 - cols, rows - 1))[::-1].copy()
    return sliding_window_view(vals, cols)[::-1].copy()


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


def _conjugated_columns(a: CoeffVector, W: OuterPair, N: int,
                        cols: int) -> np.ndarray:
    """Columns 0..cols-1 of the N x N section of M_W T(a) M_{1/W}.

    The product L_W T_a L_{1/W} of sections of the three factors: L_W is
    N x N, T_a is N x (N+n) with n = max(0, -lo), and L_{1/W} is
    (N+n) x cols.  Rows < N of the composition reach coefficients of W and
    1/W below N+n only; shorter outer windows count as zero-padded.
    """
    n = max(0, -a.lo)
    inner = _section(a, N, N + n) @ _section(W.winv_coeffs, N + n, cols)
    return _section(W.w_coeffs, N, N) @ inner


def conjugated_toeplitz_matrix(a: CoeffVector, W: OuterPair, N: int) -> np.ndarray:
    """Section of the conjugated operator M_W T(a) M_{1/W}.

    Column j is the window [0, N-1] of P(W . P(a . P(W^{-1} e_j))), built as
    the product of the sections of M_W, T(a) and M_{1/W}; the only
    truncation is the finite window of the supplied outer pair.
    """
    if N < 1:
        raise ValueError("section size must be >= 1")
    return _conjugated_columns(a, W, N, N)


def csa_decompose(a: CoeffVector) -> tuple[int, CoeffVector]:
    """Rewrite a finite Laurent symbol as e_{-n} h.

    n = max(1, -lowest frequency of a); h = e_n * a is analytic and the
    reconstruction e_{-n} h reproduces the input coefficientwise.
    """
    n = max(1, -a.lo)
    shifted = CoeffVector(IndexWindow(a.lo + n, a.hi + n), a.coeffs)
    win = IndexWindow(0, max(shifted.hi, 0))
    return n, CoeffVector(win, shifted.on_window(win))


def symbol_sup(a: CoeffVector, size: int = 1 << 16) -> float:
    """Dense-grid supremum of |a| (default 2^16 sample points)."""
    return float(np.max(np.abs(synthesize(a, size).samples)))
