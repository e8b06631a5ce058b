"""Essential-norm brackets for finite sections.

The essential norm of a Toeplitz operator (its distance to the compacts) is
bracketed on one N x N section by ``essential_bracket``, the only norm
routine here:

* upper end: the largest singular value of the section with its first m
  columns zeroed, i.e. the norm of A(I - P_m).  Discarding a finite-rank
  piece can only move the norm toward the essential norm, the value is
  nonincreasing in m, and on H^2 it converges (in m, then N) to sup|a| for
  the symbol classes treated here.  Note the section norm approaches the
  limit from below, so at finite N the upper end typically sits a few parts
  in 1e5 under sup|a|.  On H^2 the a-priori bound
  ``compression_deficiency_bound`` caps that deficiency from the symbol's
  coefficient window, N and m alone: upper / sqrt(1 - beta) is a certified
  upper end for sup|a|.  The value is the square root of the top eigenvalue
  of the Gram matrix G = B^H B of the nonzero block B = A[:, m:], not a full
  SVD: that eigenvalue has absolute error O(eps ||G||) = O(eps sigma_max^2),
  so sigma_max keeps relative error O(eps); squaring hurts only the small
  singular values (Golub & Van Loan, Matrix Computations, 8.6; Demmel,
  Applied Numerical Linear Algebra, 5.4).  The eigenvalues come from a
  full-spectrum driver, since the top of the spectrum clusters.  Without a
  weight, B is the section of a Laurent polynomial of span u = hi - lo, so
  G is a band matrix of bandwidth u.  When u <= (N - m) // 32 (the cutoff
  ``_BAND_RATIO``), the band is built from the coefficient products
  a_t conj(a_{t-d}) and reduced to tridiagonal form in O(N^2 u) (Schwarz,
  Numer. Math. 12, 1968; LAPACK sbtrd) instead of O(N^3).  A weighted block
  fills every diagonal and keeps the dense Gram matrix, as does a symbol
  of wider span.
* lower end: the largest value of ||A u|| over modulated wave packets
  u = L^(-1/2) sum_l e^(i l theta) e_{m+l}.  Packets supported on columns
  m .. m+L-1 are feasible test vectors for A(I - P_m), so the bracket is
  ordered by construction; compact perturbations vanish on such
  high-frequency packets as m grows.  Only the L columns the packets
  touch enter the product.

Weighted spaces are handled by conjugating with the outer function of the
weight (an isometry onto the unweighted space), so a single flat-metric
Gram structure serves every weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import _conjugated_columns, _section
from .spectral import CoeffVector, IndexWindow
from .weights import OuterPair

# Matrices whose imaginary part is below this relative level are treated as
# real for the Gram eigenvalue (a real symmetric G costs a quarter of the
# complex Hermitian one in the product and in the tridiagonalisation).
_REAL_CAST_RTOL = 1e-12

# An unweighted block whose symbol span hi - lo is at most (N - m) // this
# ratio takes sigma_max from the banded Gram matrix.  Measured crossover
# (2 vCPUs, OpenBLAS, two threads, medians of 5): at N - m = 960 the banded
# path takes 61 ms at span 32 against 81 ms dense and loses by span 64
# (102 against 78 ms); at N - m = 1984 it takes 406 ms at span 64 against
# 621 ms and breaks even near span 96.
_BAND_RATIO = 32


def __getattr__(name):
    # perfbench/tracing.py looks up ``estimation.svdvals`` by name, and
    # nothing else uses it; it resolves here so that importing estimation
    # does not load SciPy.  Re-aiming the benchmark at the traced layers of
    # today (ROADMAP item 6) deletes this hook.
    if name == "svdvals":
        from scipy.linalg import svdvals
        return svdvals
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class BracketParams:
    """Truncation parameters for essential-norm brackets."""

    N: int = 1024
    m: int = 64
    L: int = 64
    thetas: int = 256


@dataclass(frozen=True)
class NormEstimate:
    """A bracket [lower, upper] of an essential norm."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower >= 0 and self.upper >= 0):
            raise ValueError("bracket endpoints must be nonnegative")
        if self.lower > self.upper + 1e-9:
            raise ValueError("bracket lower end exceeds upper end")


def _sigma_max_dense(B: np.ndarray) -> float:
    """Largest singular value of B as sqrt(lambda_max(B^H B)).

    The eigenvalues come from the full-spectrum driver (syevd/heevd:
    tridiagonalisation, then the root-free QR of sterf).  The
    single-eigenvalue drivers (evr, evx) break down when the top of the
    spectrum clusters, as it does for a unimodular symbol, where G is close
    to I; after tridiagonalisation the whole spectrum costs only O(n^2)
    more.  Product and eigenvalues both run in NumPy's BLAS, which builds
    the sections too.  SciPy loads a BLAS of its own: handing it NumPy's
    product made this step about twice as slow at N = 1024 (two BLAS
    threads, 2-vCPU box), the idle workers of one library competing with
    the other's.
    """
    scale = float(np.max(np.abs(B))) if B.size else 0.0
    if scale == 0.0:
        return 0.0
    if np.max(np.abs(B.imag)) <= _REAL_CAST_RTOL * scale:
        B = np.ascontiguousarray(B.real)
    lam = np.linalg.eigvalsh(B.conj().T @ B)[-1]
    return math.sqrt(max(float(lam), 0.0))


def _gram_band(c: np.ndarray, lo: int, N: int, m: int) -> np.ndarray:
    """Lower band storage ab[d, p] = G[p + d, p] of G = B^H B for the
    unweighted block B = T_N(a)[:, m:], where c holds a's coefficients on
    its window [lo, lo + u].

    Column p of B (section column j = m + p) holds a_t in row j + t, so
    G[p + d, p] = sum of a_t conj(a_{t-d}) over t in [lo + d, lo + u] with
    the shared row j + t inside the section: the top cut (rows >= 0) trims
    the first columns when m < -lo, the row cut (rows < N) the last hi.
    Entries past the end of diagonal d (p >= N - m - d) are never read.
    """
    u = len(c) - 1
    j = np.arange(m, N)[:, None]
    ab = np.empty((u + 1, N - m), dtype=c.dtype)
    for d in range(u + 1):
        rows = j + np.arange(lo + d, lo + u + 1)
        inside = (rows >= 0) & (rows < N)
        ab[d] = inside @ (c[d:] * c[:u + 1 - d].conj())
    return ab


def _sigma_max_banded(a: CoeffVector, N: int, m: int) -> float:
    """sigma_max(T_N(a)[:, m:]) as sqrt(lambda_max(G)) from G's band.

    G has bandwidth u = hi - lo, and LAPACK's banded full-spectrum driver
    (sbevd/hbevd: band-to-tridiagonal reduction, O(K^2 u) for K = N - m,
    then sterf) replaces the O(K^3) dense path.  A single-eigenvalue driver
    is avoided for the reason given in ``_sigma_max_dense``.  a's
    coefficients are B's entries, so the real cast follows the same rule.
    """
    # Imported here, not at module level: this is the package's only SciPy
    # call, and loading scipy.linalg takes 0.25-0.35 s of the 0.45-0.7 s
    # that ``import toepnorm.cli`` costs with it (2 vCPUs), a price that
    # ap-check and verify-identity, which never get here, need not pay.
    from scipy.linalg import eigvals_banded

    c = a.coeffs
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return 0.0
    if np.max(np.abs(c.imag)) <= _REAL_CAST_RTOL * scale:
        c = c.real
    lam = eigvals_banded(_gram_band(c, a.lo, N, m), lower=True)[-1]
    return math.sqrt(max(float(lam), 0.0))


def _require_outer_window(W: OuterPair, needed: int):
    if len(W.w_coeffs.coeffs) < needed or len(W.winv_coeffs.coeffs) < needed:
        raise ValueError(
            f"outer pair window too short for this section: need length >= {needed}")


def assemble_section(a: CoeffVector, W: OuterPair | None, N: int,
                     m: int, cols: int | None = None) -> np.ndarray:
    """Columns m..m+cols-1 (by default m..N-1) of the dense N x N section of
    T(a), or of M_W T(a) M_{1/W} when W is given: the block A[:, m:] that
    the bracket reads, or its first cols columns.

    The conjugated section is Toeplitz away from its first n = max(0, -lo)
    columns: for e_j with j >= n the inner projection in
    P(W . P(a . W^{-1} e_j)) truncates nothing, so column j is a shift of
    the one convolution g = w * a * winv (g = a without a weight), and the
    block is the section of g shifted by m.  Only leading columns below n
    need the projected composition, taken from the product of the factor
    sections (the discarded outer-window tail never reaches rows < N).  The
    identity check compares the literal product against T + K0, so this
    shortcut serves the brackets only.
    """
    cols = N - m if cols is None else cols
    n_neg = 0
    g = a.coeffs
    if W is not None:
        n_neg = max(0, -a.lo)
        _require_outer_window(W, N + n_neg)
        g = np.convolve(W.w_coeffs.coeffs,
                        np.convolve(a.coeffs, W.winv_coeffs.coeffs))
    B = _section(CoeffVector(IndexWindow(a.lo + m, a.lo + m + len(g) - 1), g),
                 N, cols)
    k = min(n_neg, m + cols)
    if m < k:
        B[:, :k - m] = _conjugated_columns(a, W, N, k)[:, m:]
    return B


def _wave_packets(L: int, thetas: int) -> np.ndarray:
    """L x thetas block whose columns are the packets u_theta on their
    support, for a uniform theta grid of the given size."""
    ths = 2.0 * np.pi * np.arange(thetas) / thetas
    return np.exp(1j * np.outer(np.arange(L), ths)) / math.sqrt(L)


def compression_deficiency_bound(a: CoeffVector, m: int, N: int) -> float:
    """A-priori beta with ||T_N(a)(I - P_m)||^2 >= (1 - beta) sup|a|^2.

    Derivation (unweighted sections only).  Let the symbol's window be
    [lo, hi], n = hi - lo, s = sup|a| attained at theta_0, and
    f = s^2 - |a|^2: a real trigonometric polynomial of degree n with
    0 <= f <= s^2 and f(theta_0) = f'(theta_0) = 0.  A unit vector u
    supported on columns j0 <= j < j0 + K, with j0 = max(m, -lo) and
    K = N - j0 - max(hi, 0), meets neither the zeroed columns nor the row
    cut, so ||A u||^2 = int |a|^2 |u^|^2 = s^2 - int f |u^|^2 (normalized
    measure, u^ = sum_j u_j e^{ij theta}).  Take the sine window
    u_{j0+l} ~ sin(pi (l+1) / (K+1)) modulated to theta_0.  Taylor's formula
    and |t| <= pi |sin(t/2)| on [-pi, pi] give
    f(theta_0 + t) <= ||f''|| (pi^2 / 8) 4 sin^2(t/2), and
    int 4 sin^2(t/2) |u^(theta_0 + t)|^2 = sum_l |u_{l+1} - u_l|^2
    = 4 sin^2(pi / (2(K+1))), the lowest Dirichlet eigenvalue of the path
    Laplacian.  Bernstein's inequality ||f''|| <= n^2 ||f|| <= n^2 s^2 then
    gives

        beta = (n^2 pi^2 / 8) * 4 sin^2(pi / (2(K+1))),

    which falls like 1/N^2 and vanishes when |a| is constant (n = 0).  Hence
    sup|a| <= ||A(I - P_m)|| / sqrt(1 - beta) whenever beta < 1.  A weighted
    section is not T_N(a); the bound does not apply to it.
    """
    K = N - max(m, -a.lo) - max(a.hi, 0)
    if K < 1:
        raise ValueError("section leaves no room for a packet past the cutoff")
    n = a.hi - a.lo
    return (n * math.pi) ** 2 / 8.0 * 4.0 * math.sin(math.pi / (2 * (K + 1))) ** 2


def essential_bracket(a: CoeffVector, W: OuterPair | None,
                      params: BracketParams = BracketParams()) -> NormEstimate:
    """Bracket the essential norm on one shared section A.

    The upper end is ||A (I - P_m)|| = sigma_max(A[:, m:]), the square root
    of the top eigenvalue of the Gram matrix from a full-spectrum driver
    (the top of a Toeplitz section's singular spectrum clusters too tightly
    for power iteration or a single-eigenvalue driver).  Without a weight
    and with span hi - lo <= (N - m) // _BAND_RATIO the Gram matrix is
    taken in band storage (``_sigma_max_banded``); otherwise it is formed
    densely (``_sigma_max_dense``).  The choice rests on the block's
    structure alone and changes sigma_max by rounding only; the banded path
    builds only the columns A[:, m:m+L] of the section.  The lower end is
    the largest ||A u_theta|| over the wave packets on columns m .. m+L-1,
    applied as A[:, m:m+L] times the L x thetas modulation block.
    """
    N, m, L, thetas = params.N, params.m, params.L, params.thetas
    if not (1 <= m <= N // 4):
        raise ValueError("tail cutoff must satisfy 1 <= m <= N/4")
    if L < 1 or thetas < 1:
        raise ValueError("packet parameters must be positive")
    if m + L > N - max(0, a.hi):
        raise ValueError("wave packet would overflow the section window")
    if W is None and a.hi - a.lo <= (N - m) // _BAND_RATIO:
        upper = _sigma_max_banded(a, N, m)
        B = assemble_section(a, None, N, m, L)
    else:
        B = assemble_section(a, W, N, m)
        upper = _sigma_max_dense(B)
    lower = float(np.max(np.linalg.norm(B[:, :L] @ _wave_packets(L, thetas),
                                        axis=0)))
    # ||A u|| is a certified lower bound for the same sigma_max, so the Gram
    # value may be raised to it without leaving the surrogate.
    upper = max(upper, lower)
    return NormEstimate(lower, upper)


def theoretical_bounds(p: float) -> tuple[float, float]:
    """Coefficient bounds (1, min{2^|1-2/p|, 1/sin(pi/p)}) for the essential
    norm relative to sup|a| on H^p."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    upper = min(2.0 ** abs(1.0 - 2.0 / p), 1.0 / math.sin(math.pi / p))
    return 1.0, upper
