"""Reference implementations that the tests compare the library against.

The library builds every section as a product of structured matrices.  The
coefficient algebra here works on single coefficient windows instead, one
column at a time: a window padded or cut to another (``on_window``), the
Riesz projection P, its truncation P_n, products as direct convolutions,
T(e_{-n} h) by its shifted-analytic formula, and the column-wise
conjugated and K0 sections assembled from them; beside them, the
conjugated section as dense GEMMs of the factor sections.  The Schwarz
integral gives an outer function from grid samples independently of the
cepstral constructions.  The dense sigma_max formula is kept in the form
that reads the whole assembled block, which ``block`` builds from the
library's own parts.
"""

import math

import numpy as np

from toepnorm import CoeffVector, IndexWindow
from toepnorm.estimation import _block, _block_parts
from toepnorm.operators import _toeplitz
from toepnorm.spectral import grid_thetas
from toepnorm.weights import _positive_real_samples


def on_window(c: CoeffVector, window: IndexWindow) -> np.ndarray:
    """Coefficients of c restricted/padded to another window."""
    out = np.zeros(len(window), dtype=complex)
    lo = max(c.lo, window.lo)
    hi = min(c.hi, window.hi)
    if lo <= hi:
        out[lo - window.lo:hi - window.lo + 1] = \
            c.coeffs[lo - c.lo:hi - c.lo + 1]
    return out


def section(c: CoeffVector, rows: int, cols: int) -> np.ndarray:
    """The library's rows x cols Toeplitz section of c, entries c-hat(i - j)
    (``operators._toeplitz``)."""
    return _toeplitz(c.lo, c.coeffs, rows, cols)


def coeff(c: CoeffVector, k: int) -> complex:
    """Coefficient of c at frequency k (zero outside its window)."""
    if c.lo <= k <= c.hi:
        return complex(c.coeffs[k - c.lo])
    return 0.0 + 0.0j


def riesz_project(c: CoeffVector) -> CoeffVector:
    """Annihilate all negative-frequency coefficients."""
    win = IndexWindow(max(c.lo, 0), max(c.hi, 0))
    return CoeffVector(win.lo, on_window(c, win))


def truncate_pn(c: CoeffVector, n: int) -> CoeffVector:
    """Keep coefficients at frequencies 0..n-1 only; output window is [0, n-1]."""
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    return CoeffVector(0, on_window(c, IndexWindow(0, n - 1)))


def multiply(a: CoeffVector, b: CoeffVector) -> CoeffVector:
    """Pointwise product as an exact Cauchy-product (direct) convolution on
    the window [a.lo + b.lo, a.hi + b.hi]; there is no wrap-around."""
    return CoeffVector(a.lo + b.lo, np.convolve(a.coeffs, b.coeffs))


def add(a: CoeffVector, b: CoeffVector) -> CoeffVector:
    """Coefficientwise sum on the union window."""
    win = IndexWindow(min(a.lo, b.lo), max(a.hi, b.hi))
    return CoeffVector(win.lo, on_window(a, win) + on_window(b, win))


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
        return CoeffVector(0, [0.0])
    return CoeffVector(0, [coeff(hf, k) for k in range(n, hf.hi + 1)])


def cut_pair(W, K: int):
    """The outer pair W with both windows cut to their first K
    coefficients."""
    return type(W)(CoeffVector(0, W.w_coeffs.coeffs[:K]),
                   CoeffVector(0, W.winv_coeffs.coeffs[:K]))


def conjugated_reference(a, W, N):
    """Column j is the window [0, N-1] of P(W . P(a . P(W^{-1} e_j)))."""
    win = IndexWindow(0, N - 1)
    out = np.zeros((N, N), dtype=complex)
    for j in range(N):
        x = riesz_project(multiply(W.winv_coeffs, CoeffVector(j, [1.0])))
        y = riesz_project(multiply(a, x))
        out[:, j] = on_window(riesz_project(multiply(W.w_coeffs, y)), win)
    return out


def conjugated_gemm(a, W, N):
    """The section of M_W T(a) M_{1/W} as L_W (T_a L_{1/W}), both products
    dense GEMMs over the whole factor sections, zeros included."""
    n = max(0, -a.lo)
    inner = section(a, N, N + n) @ section(W.winv_coeffs, N + n, N)
    return section(W.w_coeffs, N, N) @ inner


def composition_bound(a, W, N):
    """Entrywise bound on the difference of two roundings of the product
    L_W (T_a L_{1/W}) that differ only in summation order, as between
    ``conjugated_gemm`` and the library's composition.

    Each entry of T_a L_{1/W} is a complex inner product of at most
    k1 = hi - lo + 1 nonzero terms (a's window) and each entry of L_W X
    one of at most k2 = N (a row of the triangular L_W); a zero term adds
    an exact zero in any order, so the dense GEMM and the banded route
    share these counts.  A complex inner product of k terms, summed in any
    order, errs by at most sqrt(2) gamma_(k+2) |x|^T |y|, with
    gamma_k = k u / (1 - k u), u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 3.5-3.6).  So the computed inner factor
    X^ satisfies |X^ - X| <= sqrt(2) gamma_(k1+2) |T_a| |L_{1/W}|, and the
    computed product

        |C^ - L_W X| <= sqrt(2) (gamma_(k1+2) + gamma_(k2+2)
                        (1 + sqrt(2) gamma_(k1+2))) |L_W| |T_a| |L_{1/W}|

    on each route; two routes differ by at most twice that.  The product
    of the moduli is itself formed in floating point, from nonnegative
    terms, to relative gamma_(2N + n) below 1e-12, which the factor
    1 + 1e-9 covers.
    """
    u = 2.0 ** -53

    def gamma(k):
        return k * u / (1 - k * u)

    n = max(0, -a.lo)
    k1 = a.hi - a.lo + 1
    g1, g2 = math.sqrt(2) * gamma(k1 + 2), math.sqrt(2) * gamma(N + 2)
    M = np.abs(section(W.w_coeffs, N, N)) @ (
        np.abs(section(a, N, N + n)) @ np.abs(section(W.winv_coeffs, N + n,
                                                      N)))
    return 2 * (g1 + g2 * (1 + g1)) * (1 + 1e-9) * M


def k0_reference(n, h, W, N):
    """Both terms of T(e_{-n}) P_n M_h - T(e_{-n}) M_W P_n M_{h/W}, column
    by column."""
    win = IndexWindow(0, N - 1)
    hwi = multiply(h, W.winv_coeffs)
    out = np.zeros((N, N), dtype=complex)
    one = CoeffVector(0, [1.0])
    for j in range(N):
        ej = CoeffVector(j, [1.0])
        term1 = apply_special_toeplitz(n, one,
                                       truncate_pn(multiply(h, ej), n))
        t2 = truncate_pn(multiply(hwi, ej), n)
        term2 = apply_special_toeplitz(n, one, multiply(W.w_coeffs, t2))
        out[:, j] = on_window(term1, win) - on_window(term2, win)
    return out


def block(a: CoeffVector, W, N: int, m: int, cols: int | None = None
          ) -> np.ndarray:
    """The library's block A[:, m:] that a bracket reads, or its first cols
    columns, built from the parts of one ``_block_parts`` call: the
    assembled matrix that the references here are compared with."""
    cols = N - m if cols is None else cols
    return _block(_block_parts(a, W, N, m), N, 0, cols)


def cast_block(B: np.ndarray) -> np.ndarray | None:
    """An assembled complex block with the real cast decided on the whole
    matrix: a contiguous copy of B.real when max |Im B| is at most 1e-12
    max |B|, else B itself; None for a zero block."""
    scale = float(np.max(np.abs(B))) if B.size else 0.0
    if scale == 0.0:
        return None
    if np.max(np.abs(B.imag)) <= 1e-12 * scale:
        return np.ascontiguousarray(B.real)
    return B


def gram_of_block(B: np.ndarray) -> np.ndarray | None:
    """B^H B of ``cast_block(B)`` by a dense GEMM (B.T @ B for a real cast),
    in full; None for a zero block."""
    B = cast_block(B)
    if B is None:
        return None
    return B.T @ B if np.isrealobj(B) else B.conj().T @ B


def sigma_max_of_block(B: np.ndarray) -> float:
    """sqrt(lambda_max(B^H B)) of an assembled complex block, the Gram
    matrix of ``gram_of_block``; the top eigenvalue from eigvalsh on the
    upper triangle, the one the library's dense path reads."""
    G = gram_of_block(B)
    if G is None:
        return 0.0
    return math.sqrt(max(float(np.linalg.eigvalsh(G, UPLO="U")[-1]), 0.0))


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
