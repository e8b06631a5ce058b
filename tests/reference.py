"""Reference implementations that the tests compare the library against.

The library builds every section as a product of structured matrices.  The
coefficient algebra here works on single coefficient windows instead, one
column at a time: the Riesz projection P, its truncation P_n, products as
direct convolutions, T(e_{-n} h) by its shifted-analytic formula, and the
column-wise conjugated and K0 sections assembled from them.  The Schwarz
integral gives an outer function from grid samples independently of the
cepstral constructions.  The dense sigma_max formula is kept in the form
that reads the whole assembled block, which ``block`` builds from the
library's own parts.
"""

import math

import numpy as np

from toepnorm import CoeffVector, IndexWindow
from toepnorm.estimation import _block, _block_parts
from toepnorm.spectral import grid_thetas
from toepnorm.weights import _positive_real_samples


def coeff(c: CoeffVector, k: int) -> complex:
    """Coefficient of c at frequency k (zero outside its window)."""
    if c.lo <= k <= c.hi:
        return complex(c.coeffs[k - c.lo])
    return 0.0 + 0.0j


def unit(n: int) -> CoeffVector:
    """The monomial z**n as a CoeffVector."""
    return CoeffVector(IndexWindow(n, n), np.array([1.0 + 0.0j]))


def riesz_project(c: CoeffVector) -> CoeffVector:
    """Annihilate all negative-frequency coefficients."""
    win = IndexWindow(max(c.lo, 0), max(c.hi, 0))
    return CoeffVector(win, c.on_window(win))


def truncate_pn(c: CoeffVector, n: int) -> CoeffVector:
    """Keep coefficients at frequencies 0..n-1 only; output window is [0, n-1]."""
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    win = IndexWindow(0, n - 1)
    return CoeffVector(win, c.on_window(win))


def multiply(a: CoeffVector, b: CoeffVector) -> CoeffVector:
    """Pointwise product as an exact Cauchy-product (direct) convolution on
    the window [a.lo + b.lo, a.hi + b.hi]; there is no wrap-around."""
    win = IndexWindow(a.lo + b.lo, a.hi + b.hi)
    return CoeffVector(win, np.convolve(a.coeffs, b.coeffs))


def add(a: CoeffVector, b: CoeffVector) -> CoeffVector:
    """Coefficientwise sum on the union window."""
    win = IndexWindow(min(a.lo, b.lo), max(a.hi, b.hi))
    return CoeffVector(win, a.on_window(win) + b.on_window(win))


def apply_special_toeplitz(n: int, h: CoeffVector, f: CoeffVector) -> CoeffVector:
    """Apply T(e_{-n} h) to analytic f via e_{-n} (I - P_n)(h f).

    Dropping the first n coefficients of h*f and shifting down by n agrees
    exactly with projecting e_{-n} h f onto nonnegative frequencies.
    """
    if n < 1:
        raise ValueError("shift order n must be >= 1")
    if h.lo != 0:
        raise ValueError("h must be analytic (window starting at 0)")
    if f.lo < 0:
        raise ValueError("f must be analytic (no negative frequencies)")
    hf = multiply(h, f)
    if hf.hi < n:
        return CoeffVector(IndexWindow(0, 0), np.zeros(1, dtype=complex))
    win = IndexWindow(0, hf.hi - n)
    out = np.array([coeff(hf, k + n) for k in range(len(win))])
    return CoeffVector(win, out)


def conjugated_reference(a, W, N):
    """Column j is the window [0, N-1] of P(W . P(a . P(W^{-1} e_j)))."""
    win = IndexWindow(0, N - 1)
    out = np.zeros((N, N), dtype=complex)
    for j in range(N):
        x = riesz_project(multiply(W.winv_coeffs, unit(j)))
        y = riesz_project(multiply(a, x))
        out[:, j] = riesz_project(multiply(W.w_coeffs, y)).on_window(win)
    return out


def k0_reference(n, h, W, N):
    """Both terms of T(e_{-n}) P_n M_h - T(e_{-n}) M_W P_n M_{h/W}, column
    by column."""
    win = IndexWindow(0, N - 1)
    hwi = multiply(h, W.winv_coeffs)
    out = np.zeros((N, N), dtype=complex)
    for j in range(N):
        ej = unit(j)
        term1 = apply_special_toeplitz(n, unit(0),
                                       truncate_pn(multiply(h, ej), n))
        t2 = truncate_pn(multiply(hwi, ej), n)
        term2 = apply_special_toeplitz(n, unit(0), multiply(W.w_coeffs, t2))
        out[:, j] = term1.on_window(win) - term2.on_window(win)
    return out


def block(a: CoeffVector, W, N: int, m: int, cols: int | None = None
          ) -> np.ndarray:
    """The library's block A[:, m:] that a bracket reads, or its first cols
    columns, built from the parts of one ``_block_parts`` call: the
    assembled matrix that the references here are compared with."""
    cols = N - m if cols is None else cols
    return _block(*_block_parts(a, W, N, m), N, cols)


def gram_of_block(B: np.ndarray) -> np.ndarray | None:
    """B^H B of an assembled complex block, with the real cast decided on
    the whole matrix: real when max |Im B| is at most 1e-12 max |B|, then
    G = B.T @ B of a contiguous copy of B.real, else G = B^H B; None for a
    zero block."""
    scale = float(np.max(np.abs(B))) if B.size else 0.0
    if scale == 0.0:
        return None
    if np.max(np.abs(B.imag)) <= 1e-12 * scale:
        B = np.ascontiguousarray(B.real)
        return B.T @ B
    return B.conj().T @ B


def sigma_max_of_block(B: np.ndarray) -> float:
    """sqrt(lambda_max(B^H B)) of an assembled complex block, the Gram
    matrix of ``gram_of_block``; the top eigenvalue from eigvalsh."""
    G = gram_of_block(B)
    if G is None:
        return 0.0
    return math.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0))


def packet_lower(B: np.ndarray, thetas: int) -> float:
    """max over theta_k = 2 pi k / thetas of ||B u_k||, each packet
    u_k = L^(-1/2) (e^(i l theta_k))_l applied to the assembled columns B
    directly.  l k is reduced mod thetas in integers, so every phase is
    formed from an angle in [0, 2 pi): each entry of u_k is in error by at
    most (6 pi + 4) u relative."""
    L = B.shape[1]
    r = np.outer(np.arange(L), np.arange(thetas)) % thetas
    U = np.exp(2j * np.pi * r / thetas) / math.sqrt(L)
    return float(np.max(np.linalg.norm(B @ U, axis=0)))


def tridiagonal_top(d: np.ndarray, e: np.ndarray) -> float:
    """lambda_max of the symmetric tridiagonal with diagonal d and
    off-diagonal e, by plain bisection on the Sturm sequence in long double
    (Wilkinson, The Algebraic Eigenvalue Problem, 5.37) to 2^-60 relative:
    the largest s found at which some pivot of the LDL^T of sI - T is not
    positive.  Where long double carries 64 bits of mantissa
    (``np.finfo(np.longdouble).nmant`` is 63) that is 2^-7 of a double's
    unit roundoff, and its own rounding perturbs T by 2^-11 of a double
    computation's."""
    ld = np.longdouble
    d, e2 = d.astype(ld), e.astype(ld) ** 2
    r = np.abs(e).astype(ld)
    lo = np.max(d)
    hi = np.max(d + np.r_[r, ld(0)] + np.r_[ld(0), r]) + 1
    # until 2^-60 relative, or an absolute 1e-320 under any float64 normal
    while hi - lo > max(ld(2.0) ** -60 * max(abs(lo), abs(hi)), ld(1e-320)):
        s = (lo + hi) / 2
        p = s - d[0]
        for i in range(1, len(d)):
            if p <= 0:
                break
            p = (s - d[i]) - e2[i - 1] / p
        if p > 0:
            hi = s
        else:
            lo = s
    return lo


def schwarz_outer(w: np.ndarray, z: complex) -> complex:
    """Outer function of a weight's grid samples w at a point of the open
    disk: the midpoint-rule Schwarz integral
    exp((1/2pi) int (e^{it}+z)/(e^{it}-z) log w dt).  For cusped weights
    its accuracy is limited by the same O(1/M) alias as ``outer_pair``."""
    z = complex(z)
    if abs(z) > 0.99:
        raise ValueError("evaluation point must satisfy |z| <= 0.99")
    vals = _positive_real_samples(w)
    t = np.exp(1j * grid_thetas(len(vals)))
    kernel = (t + z) / (t - z)
    return complex(np.exp(np.mean(kernel * np.log(vals))))
