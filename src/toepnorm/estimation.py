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
  Applied Numerical Linear Algebra, 5.4).  The eigenvalues come from the
  full-spectrum driver, since the top of the spectrum clusters.
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
# Unused, but perfbench/tracing.py traces ``estimation.svdvals`` by name.
from scipy.linalg import svdvals  # noqa: F401

from .operators import _conjugated_columns, _section, toeplitz_matrix
from .spectral import CoeffVector, IndexWindow
from .weights import OuterPair

# Matrices whose imaginary part is below this relative level are treated as
# real for the Gram eigenvalue (a real symmetric G costs a quarter of the
# complex Hermitian one in the product and in the tridiagonalisation).
_REAL_CAST_RTOL = 1e-12


@dataclass(frozen=True)
class BracketParams:
    """Truncation parameters for essential-norm brackets."""

    N: int = 1024
    m: int = 64
    L: int = 64
    thetas: int = 256


@dataclass(frozen=True)
class NormEstimate:
    """A bracket [lower, upper] with the truncation parameters behind it."""

    lower: float
    upper: float
    N: int
    m: int
    L: int
    thetas: int

    def __post_init__(self):
        if not (self.lower >= 0 and self.upper >= 0):
            raise ValueError("bracket endpoints must be nonnegative")
        if self.lower > self.upper + 1e-9:
            raise ValueError("bracket lower end exceeds upper end")
        if min(self.N, self.m, self.L, self.thetas) <= 0:
            raise ValueError("all truncation parameters must be positive")


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


def _require_outer_window(W: OuterPair, needed: int):
    if len(W.w_coeffs.coeffs) < needed or len(W.winv_coeffs.coeffs) < needed:
        raise ValueError(
            f"outer pair window too short for this section: need length >= {needed}")


def assemble_section(a: CoeffVector, W: OuterPair | None, N: int) -> np.ndarray:
    """Dense N x N section of T(a), or of M_W T(a) M_{1/W} when W is given.

    The conjugated section is Toeplitz away from its first n = max(0, -lo)
    columns: for e_j with j >= n the inner projection in
    P(W . P(a . W^{-1} e_j)) truncates nothing, so column j is a shift of
    the one convolution g = w * a * winv.  Only the leading columns need the
    projected composition, taken from the product of the factor sections
    for those columns alone (the discarded outer-window tail never reaches
    rows < N).  The identity check compares the literal product against
    T + K0, so this shortcut serves the brackets only.
    """
    if W is None:
        return toeplitz_matrix(a, N)
    n_neg = max(0, -a.lo)
    _require_outer_window(W, N + n_neg)
    g = np.convolve(W.w_coeffs.coeffs,
                    np.convolve(a.coeffs, W.winv_coeffs.coeffs))
    A = _section(CoeffVector(IndexWindow(a.lo, a.lo + len(g) - 1), g), N, N)
    k = min(n_neg, N)
    if k:
        A[:, :k] = _conjugated_columns(a, W, N, k)
    return A


def _wave_packets(L: int, thetas: int) -> np.ndarray:
    """L x thetas block whose columns are the packets u_theta on their
    support, for a uniform theta grid of the given size."""
    ths = 2.0 * np.pi * np.arange(thetas) / thetas
    return np.exp(1j * np.outer(np.arange(L), ths)) / math.sqrt(L)


def compression_deficiency_bound(a: CoeffVector, W: OuterPair | None, m: int,
                                 N: int) -> float:
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
    section is not T_N(a), so W must be None.
    """
    if W is not None:
        raise ValueError("the deficiency bound holds for unweighted sections only")
    K = N - max(m, -a.lo) - max(a.hi, 0)
    if K < 1:
        raise ValueError("section leaves no room for a packet past the cutoff")
    n = a.hi - a.lo
    return (n * math.pi) ** 2 / 8.0 * 4.0 * math.sin(math.pi / (2 * (K + 1))) ** 2


def essential_bracket(a: CoeffVector, W: OuterPair | None,
                      params: BracketParams = BracketParams()) -> NormEstimate:
    """Bracket the essential norm on one shared section A.

    The upper end is ||A (I - P_m)|| = sigma_max(A[:, m:]), the square root
    of the top eigenvalue of the dense Gram matrix from a full-spectrum
    driver (the top of a Toeplitz section's singular spectrum clusters too
    tightly for power iteration or a single-eigenvalue driver).  The lower
    end is the largest ||A u_theta|| over the wave packets on columns
    m .. m+L-1, applied as A[:, m:m+L] times the L x thetas modulation
    block.
    """
    N, m, L, thetas = params.N, params.m, params.L, params.thetas
    if not (1 <= m <= N // 4):
        raise ValueError("tail cutoff must satisfy 1 <= m <= N/4")
    if L < 1 or thetas < 1:
        raise ValueError("packet parameters must be positive")
    if m + L > N - max(0, a.hi):
        raise ValueError("wave packet would overflow the section window")
    A = assemble_section(a, W, N)
    upper = _sigma_max_dense(A[:, m:])
    lower = float(np.max(np.linalg.norm(A[:, m:m + L] @ _wave_packets(L, thetas),
                                        axis=0)))
    # ||A u|| is a certified lower bound for the same sigma_max, so the Gram
    # value may be raised to it without leaving the surrogate.
    upper = max(upper, lower)
    return NormEstimate(lower, upper, N, m, L, thetas)


def theoretical_bounds(p: float) -> tuple[float, float]:
    """Coefficient bounds (1, min{2^|1-2/p|, 1/sin(pi/p)}) for the essential
    norm relative to sup|a| on H^p."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    upper = min(2.0 ** abs(1.0 - 2.0 / p), 1.0 / math.sin(math.pi / p))
    return 1.0, upper
