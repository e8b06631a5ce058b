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
  full-spectrum driver, since the top of the spectrum clusters.  G is
  formed densely (``_sigma_max_dense``), or, for an unweighted block of
  narrow span, in band storage (``_sigma_max_banded``); B is real when its
  entries are, to the relative level ``_REAL_CAST_RTOL``.
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

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import _conjugated_columns, _section
from .spectral import CoeffVector, IndexWindow
from .weights import OuterPair

# A block whose imaginary parts are at most this fraction of its largest
# entry is taken as real for the Gram eigenvalue (a real symmetric G costs a
# quarter of the complex Hermitian one in the product and in the
# tridiagonalisation).  The rule (``_real_cast``) is decided once, on the
# coefficient windows that the block repeats, before the block is built.
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


def _real_cast(*windows: np.ndarray) -> bool | None:
    """The real-cast rule for a block whose entries are the values of these
    coefficient windows, and zeros: None when every value is zero (the
    block's sigma_max is 0), else whether no imaginary part exceeds
    _REAL_CAST_RTOL times the largest modulus among them.  Maxima are exact,
    so the verdict is the one the whole block would give."""
    scale = max(float(np.max(np.abs(w), initial=0.0)) for w in windows)
    if scale == 0.0:
        return None
    return all(np.max(np.abs(w.imag), initial=0.0) <= _REAL_CAST_RTOL * scale
               for w in windows)


def _sigma_max_dense(a: CoeffVector, W: OuterPair | None, N: int,
                     m: int) -> float:
    """sigma_max of the block B = A[:, m:] as sqrt(lambda_max(B^H B)).

    The real cast is decided once, on the coefficient windows B repeats
    (``_block_parts``: the values of g that its Toeplitz columns hold, and
    its leading conjugated columns), so no matrix is scanned for it; B is
    then built real or complex from the start, and a real B forms G as
    B.T @ B (syrk), with no conjugated copy.  The eigenvalues come from the
    full-spectrum driver (syevd/heevd: tridiagonalisation, then the
    root-free QR of sterf).  The single-eigenvalue drivers (evr, evx) and
    bisection for the top eigenvalue alone (stebz, RANGE = 'I': INFO = 2)
    break down when the top of the spectrum clusters, as it does for a
    unimodular symbol, where G is close to I; after tridiagonalisation the
    whole spectrum costs only O(n^2) more.  Product and eigenvalues both run in
    NumPy's BLAS, which builds the sections and serves the banded path too;
    a second BLAS in the process (SciPy's, tried for this step) made it
    about twice as slow at N = 1024 (two BLAS threads, 2-vCPU box), the
    idle workers of one library competing with the other's.
    """
    K = N - m
    g, lead = _block_parts(a, W, N, m, K)
    p0 = lead.shape[1]
    # columns p >= p0 of the section of g hold its values at -p .. N-1-p
    toeplitz = g.on_window(IndexWindow(1 - K, N - 1 - p0)) if p0 < K \
        else lead[:0]
    real = _real_cast(toeplitz, lead)
    if real is None:
        return 0.0
    B = _block(g, lead, N, K, real)
    G = B.T @ B if real else B.conj().T @ B
    del B  # eigvalsh works on a copy of G; B need not outlive the product
    lam = np.linalg.eigvalsh(G)[-1]
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


@functools.cache
def _numpy_band_evd():
    """NumPy's own LAPACKE band eigenvalue drivers, keyed by band dtype, or
    None when NumPy's LAPACK does not export them.

    NumPy's wheels link a scipy-openblas LAPACK with 64-bit integers whose
    symbols carry a ``64_`` suffix; loading the extension module that
    already links it resolves them through its own dependencies, so no
    second BLAS is loaded.  Only these suffixed names are bound: the suffix
    fixes the integer width, so no ABI is guessed.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        drivers = {np.dtype(np.float64): lib.scipy_LAPACKE_dsbevd64_,
                   np.dtype(np.complex128): lib.scipy_LAPACKE_zhbevd64_}
    except (OSError, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for f in drivers.values():
        # (layout, jobz, uplo, n, kd, ab, ldab, w, z, ldz) -> info
        f.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, i64,
                      ptr, i64, ptr, ptr, i64]
        f.restype = i64
    return drivers


def _band_eigvalsh(ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix G whose lower band
    storage is ab[d, p] = G[p + d, p] (real or complex), from sbevd/hbevd
    with jobz = 'N': band-to-tridiagonal reduction, then sterf.

    The driver is NumPy's LAPACK (``_numpy_band_evd``), which must export
    it; ``essential_bracket`` takes the dense path where it does not.
    """
    # a column-major (kd + 1) x n copy (layout 102, LAPACK_COL_MAJOR): the
    # driver overwrites its band
    ab = np.array(ab, order="F")
    kd, n = ab.shape[0] - 1, ab.shape[1]
    w = np.empty(n)
    info = _numpy_band_evd()[ab.dtype](102, b"N", b"L", n, kd,
                                       ab.ctypes.data, kd + 1, w.ctypes.data,
                                       None, 1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"banded eigenvalue driver failed (info = {info})")
    return w


def _sigma_max_banded(a: CoeffVector, N: int, m: int) -> float:
    """sigma_max(T_N(a)[:, m:]) as sqrt(lambda_max(G)) from G's band.

    B is the section of a Laurent polynomial of span u = hi - lo, so G has
    bandwidth u, and LAPACK's banded full-spectrum driver
    (``_band_eigvalsh``: O(K^2 u) band reduction for K = N - m, Schwarz,
    Numer. Math. 12, 1968; LAPACK sbtrd; then sterf) replaces the O(K^3)
    dense path.  A single-eigenvalue driver is avoided for the reason given
    in ``_sigma_max_dense``.  a's coefficients are B's entries, so the real
    cast follows the same rule.
    """
    c = a.coeffs
    real = _real_cast(c)
    if real is None:
        return 0.0
    if real:
        c = c.real
    lam = _band_eigvalsh(_gram_band(c, a.lo, N, m))[-1]
    return math.sqrt(max(float(lam), 0.0))


def _block_parts(a: CoeffVector, W: OuterPair | None, N: int, m: int,
                 cols: int) -> tuple[CoeffVector, np.ndarray]:
    """Columns m..m+cols-1 of the N x N section of T(a), or of
    M_W T(a) M_{1/W} when W is given, as (g, lead): the section of g,
    _section(g, N, cols), with its first lead.shape[1] columns replaced by
    the complex columns lead.

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
    n_neg = 0
    g = a.coeffs
    if W is not None:
        n_neg = max(0, -a.lo)
        need = N + n_neg
        if min(len(W.w_coeffs.coeffs), len(W.winv_coeffs.coeffs)) < need:
            raise ValueError("outer pair window too short for this section: "
                             f"need length >= {need}")
        g = np.convolve(W.w_coeffs.coeffs,
                        np.convolve(a.coeffs, W.winv_coeffs.coeffs))
    g = CoeffVector(IndexWindow(a.lo + m, a.lo + m + len(g) - 1), g)
    k = min(n_neg, m + cols)
    lead = (_conjugated_columns(a, W, N, k)[:, m:] if m < k
            else np.empty((N, 0), dtype=complex))
    return g, lead


def _block(g: CoeffVector, lead: np.ndarray, N: int, cols: int,
           real: bool = False) -> np.ndarray:
    """The block of ``_block_parts``, or the real parts of its entries."""
    B = _section(g, N, cols, real)
    B[:, :lead.shape[1]] = lead.real if real else lead
    return B


def assemble_section(a: CoeffVector, W: OuterPair | None, N: int,
                     m: int, cols: int | None = None) -> np.ndarray:
    """Columns m..m+cols-1 (by default m..N-1) of the dense N x N section of
    T(a), or of M_W T(a) M_{1/W} when W is given: the block A[:, m:] that
    the bracket reads, or its first cols columns (see ``_block_parts``)."""
    cols = N - m if cols is None else cols
    return _block(*_block_parts(a, W, N, m, cols), N, cols)


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
    for power iteration or a single-eigenvalue driver).  Without a weight,
    with span hi - lo <= (N - m) // _BAND_RATIO and where NumPy's LAPACK
    exports the band driver (``_numpy_band_evd``), the Gram matrix is taken
    in band storage (``_sigma_max_banded``); otherwise it is formed densely
    (``_sigma_max_dense``).  The choice changes sigma_max by rounding only;
    on a given build it rests on the block's structure alone.  The lower end
    is the largest ||A u_theta|| over the wave packets on columns
    m .. m+L-1, applied as the complex columns A[:, m:m+L], built apart
    from the upper end's block on both paths, times the L x thetas
    modulation block.
    """
    N, m, L, thetas = params.N, params.m, params.L, params.thetas
    if not (1 <= m <= N // 4):
        raise ValueError("tail cutoff must satisfy 1 <= m <= N/4")
    if L < 1 or thetas < 1:
        raise ValueError("packet parameters must be positive")
    if m + L > N - max(0, a.hi):
        raise ValueError("wave packet would overflow the section window")
    if (W is None and a.hi - a.lo <= (N - m) // _BAND_RATIO
            and _numpy_band_evd() is not None):
        upper = _sigma_max_banded(a, N, m)
    else:
        upper = _sigma_max_dense(a, W, N, m)
    B = assemble_section(a, W, N, m, L)
    lower = float(np.max(np.linalg.norm(B @ _wave_packets(L, thetas),
                                        axis=0)))
    # ||A u|| is a certified lower bound for the same sigma_max, so the Gram
    # value may be raised to it without leaving the surrogate.
    upper = max(upper, lower)
    return NormEstimate(lower, upper)

