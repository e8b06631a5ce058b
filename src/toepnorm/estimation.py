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
  Applied Numerical Linear Algebra, 5.4).  One routine, ``_sigma_max``,
  takes it: LAPACK reduces G to a real symmetric tridiagonal T, and
  lambda_max(T) alone is found by bisection on the sign of the LDL^T pivots
  of sI - T, a test that is monotone in s under IEEE rounding, so it stays
  exact where the top of the spectrum clusters (``_tridiagonal_top``).  G
  is held in band storage for a narrow block and formed densely otherwise.
* lower end: the largest value of ||A u|| over modulated wave packets
  u = L^(-1/2) sum_l e^(i l theta) e_{s+l}, theta on a uniform grid, from
  the column s = min(max(m, n), N - max(0, hi) - L), n = shift_order(a), of
  ``compression_deficiency_bound``'s test vector.  As s >= m they are
  feasible test vectors for A(I - P_m), so the bracket is ordered by
  construction; compact perturbations vanish on such high-frequency
  packets as m grows.  ||A u||^2 = u^H G_L u reads only the L x L Gram
  matrix G_L of those columns; its folded diagonal sums give every angle
  at once by one FFT (``_packet_lower``): O(N L^2 + thetas log thetas).

Both ends read one block, in one dtype: its parts are made once
(``_block_parts``) and cast once (``_cast_parts``), float64 when the
block's values are real; it is laid out by ``operators._toeplitz``.  A
weighted block refuses a short outer pair as the section builders do.

Weighted spaces are handled by conjugating with the outer function of the
weight (an isometry onto the unweighted space), so a single flat-metric
Gram structure serves every weight.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .operators import (_CONJ_TRANS, _ROW_MAJOR, _UPPER, _check_pair_window,
                        _numpy_lapack, _toeplitz, shift_order)
from .spectral import CoeffVector
from .weights import OuterPair

# A block whose imaginary parts are at most this fraction of its largest
# entry is taken as real for its Gram matrices (a real symmetric G costs a
# quarter of the complex Hermitian one in the product and in the
# tridiagonalisation).  ``_cast_parts`` applies the rule.
_REAL_CAST_RTOL = 1e-12

# A block whose coefficient window spans at most (N - m) // this ratio
# takes sigma_max from the banded Gram matrix.  Measured crossover of
# ``_sigma_max`` (2 vCPUs, OpenBLAS, two threads, medians of 5, two runs;
# both storages end in the same bisection): at N - m = 960 the banded path
# takes 37-39 ms at span 32 against 51-56 ms dense, still wins at span 48
# (49-62 against 58-70 ms) and loses by span 64 (72 against 52 ms); at
# N - m = 1984 it takes 342-351 ms at span 64 against 446-457 ms and
# breaks even near span 96 (465-539 against 460-520 ms).
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


def _gram_band(c: np.ndarray, lo: int, N: int, K: int) -> np.ndarray:
    """Lower band storage ab[d, p] = G[p + d, p] of G = B^H B for the
    N x K block B whose column p holds g_s in row p + s, where c holds g's
    values at frequencies lo .. lo + u (the block of ``_block_parts``
    without leading columns).

    G[p + d, p] = sum of g_s conj(g_{s-d}) over s in [lo + d, lo + u] with
    the shared row p + s inside the block: the top cut (rows >= 0) trims
    the first columns when lo < 0, the row cut (rows < N) the last ones.
    Entries past the end of diagonal d (p >= K - d) are never read.
    """
    u = len(c) - 1
    j = np.arange(K)[:, None]
    ab = np.empty((u + 1, K), dtype=c.dtype)
    for d in range(u + 1):
        rows = j + np.arange(lo + d, lo + u + 1)
        inside = (rows >= 0) & (rows < N)
        ab[d] = inside @ (c[d:] * c[:u + 1 - d].conj())
    return ab


def _lapack_info(info: int, what: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} failed (info = {info})")


def _tridiagonal(G: np.ndarray, band: bool) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and off-diagonal e of the real symmetric tridiagonal
    T = Q^H G Q to which LAPACK's Householder reduction takes the Hermitian
    K x K matrix G (Q is not formed), from NumPy's LAPACK
    (``_numpy_lapack``), which must export it.

    With ``band``, G is given by its lower band storage G[d, p] of
    ``_gram_band`` and reduced by sbtrd/hbtrd in O(K^2 u) (Schwarz, Numer.
    Math. 12, 1968), on a column-major copy.  Otherwise G is the C-ordered
    K x K matrix itself, reduced in place (it is overwritten) by sytrd/hetrd
    with uplo = 'L' on the column-major view of its buffer, which is G^T:
    only G's upper triangle is read (``_dense_gram`` fills no other), and
    the Hermitian matrix it defines is reduced in its conjugate, whose
    reduction gives the same d and e bit for bit.  For G exactly Hermitian
    in full these are the ones on which NumPy's eigvalsh (syevd/heevd, uplo
    'L') runs sterf.  Both reductions are the first step of LAPACK's
    full-spectrum drivers (sbevd/hbevd, syevd/heevd).
    """
    lapack = _numpy_lapack()
    K = G.shape[1]
    d, e = np.empty(K), np.empty(max(K - 1, 0))
    if band:
        ab = np.array(G, order="F")
        kd = ab.shape[0] - 1
        _lapack_info(lapack.band[ab.dtype](102, b"N", b"L", K, kd,
                                           ab.ctypes.data, kd + 1,
                                           d.ctypes.data, e.ctypes.data,
                                           None, 1),
                     "band tridiagonal reduction")
    else:
        if G.shape != (K, K) or not G.flags.c_contiguous:
            raise ValueError("dense reduction needs a square C-ordered "
                             "matrix")
        tau = np.empty(max(K - 1, 1), dtype=G.dtype)
        _lapack_info(lapack.dense[G.dtype](102, b"L", K, G.ctypes.data, K,
                                           d.ctypes.data, e.ctypes.data,
                                           tau.ctypes.data),
                     "dense tridiagonal reduction")
    return d, e


def _order_key(x: float) -> int:
    # consecutive integers for adjacent doubles, in the doubles' order
    # (-0.0 and 0.0 share 0): the IEEE bit pattern, sign-magnitude
    k = struct.unpack("<q", struct.pack("<d", x))[0]
    return k if k >= 0 else -(k & 0x7FFF_FFFF_FFFF_FFFF)


def _from_order_key(k: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return x if k >= 0 else -x


def _tridiagonal_top(d: np.ndarray, e: np.ndarray) -> float:
    """lambda_max of the real symmetric tridiagonal T with diagonal d and
    off-diagonal e, by bisection on a positive-definiteness test (Kahan,
    Accurate eigenvalues of a symmetric tri-diagonal matrix, Stanford CS41,
    1966; Demmel, Dhillon & Ren, ETNA 3, 1995).

    The test.  sI - T is positive definite iff s > lambda_max, iff every
    pivot p_1 = s - d_1, p_i = (s - d_i) - e_(i-1)^2 / p_(i-1) of its LDL^T
    factorisation is positive; pttrf computes them, in that order, as
    p_i = fl(fl(s - d_i) - fl(e_(i-1) fl(e_(i-1) / p_(i-1)))) and stops at
    the first that is not positive.  IEEE rounding is monotone, so each
    computed pivot is nondecreasing in s while the earlier ones are
    positive: the computed test is monotone in s too.  Bisection therefore
    finds, between two adjacent doubles lo < hi, the threshold where it
    turns; it runs on the doubles' order keys (``_order_key``), so it ends
    after at most 64 steps, each one O(K) pttrf.  It starts from
    [max d, the Gershgorin bound max(d_i + |e_(i-1)| + |e_i|)]: s = max d
    fails the test exactly (its pivot fl(s - d_i) - (>= 0) is <= 0), and
    where the rounded Gershgorin bound passes it too the search continues
    up to +inf, where every pivot is +inf.  The value returned is lo, the
    greatest double that fails, so a diagonal T gives max d exactly.

    Its error.  Dividing the computed p_i by its two roundings
    (1 + alpha_i)(1 + delta_i) of fl(s - d_i) and of the subtraction gives
    the exact pivots, with the same signs, of sI - T~ for T~ with diagonal d
    and off-diagonal e~_i = e_i (1 + eps_i), |eps_i| <= 2.5 u + O(u^2)
    (five roundings under the square root; u = 2^-53, no underflow).  By
    Weyl, |lambda_max(T~) - lambda_max(T)| <= ||T~ - T||_2 <= 5 u max|e|,
    so, with the last ulp of the bracket,

        |returned - lambda_max(T)| <= 2 u |lambda_max| + 5 u max|e|.

    sterf, which the full-spectrum drivers end with, is backward stable on
    the same T: its eigenvalues are those of T + dT, ||dT||_2 <= p(K) u
    ||T||_2, p a modestly growing function (LAPACK Users' Guide, 4.7), which
    for rounding errors of random sign is sqrt(K) (Higham & Mary, SIAM J.
    Sci. Comput. 41, 2019).  The two tops agree to the sum of the bounds;
    for the positive semidefinite T of a Gram matrix (max|e| <= lambda_max
    = ||T||_2) that is (7 + sqrt(K)) u relative, 4.2e-15 at K = 960.  T must
    be finite with a finite Gershgorin bound; a NaN in d, or in e through
    that bound, makes LAPACKE refuse the factorisation (info = -2), which
    raises.
    """
    pttrf = _numpy_lapack().pttrf
    # pttrf reads doubles through the pointers
    d, e = np.asarray(d, dtype=np.float64), np.asarray(e, dtype=np.float64)
    K = len(d)

    def definite(s: float) -> bool:
        # sI - T has off-diagonal -e; pttrf reads it only through e^2 / p,
        # whose sign it does not change, and overwrites both arrays
        p, q = s - d, e.copy()
        info = pttrf(K, p.ctypes.data, q.ctypes.data)
        if info < 0:
            _lapack_info(info, "tridiagonal LDL^T factorisation")
        return info == 0

    r = np.abs(e)
    lo = float(np.max(d))
    hi = float(np.max(d + np.r_[r, 0.0] + np.r_[0.0, r]))
    if not definite(hi):
        lo, hi = hi, math.inf
    klo, khi = _order_key(lo), _order_key(hi)
    while khi - klo > 1:
        mid = (klo + khi) // 2
        if definite(_from_order_key(mid)):
            khi = mid
        else:
            klo = mid
    return _from_order_key(klo)


# A block's parts (lo, g, lead), as ``_block_parts`` describes them
_Parts = tuple[int, np.ndarray, np.ndarray]


def _block_parts(a: CoeffVector, W: OuterPair | None, N: int,
                 m: int) -> _Parts:
    """Columns m..N-1 of the N x N section of T(a), or of M_W T(a) M_{1/W}
    when W is given, as (lo, g, lead): the N x K Toeplitz matrix, K = N - m,
    whose column p holds in row p + s the value g[s - lo] (zero outside
    lo .. lo + len(g) - 1), with its first p0 = lead.shape[1] columns
    replaced by the complex columns lead.  g keeps only the values that the
    Toeplitz columns show: column p >= p0 holds frequencies -p .. N-1-p, so
    g is trimmed to max(lo, 1 - K) .. N - 1 - p0, and is empty when every
    column leads.

    The conjugated section is Toeplitz away from its first
    n = ``shift_order(a)`` columns: for e_j with j >= n the inner projection
    in P(W . P(a . W^{-1} e_j)) truncates nothing, so column j is a shift of
    the one convolution g = w * a * winv (g = a without a weight), and the
    block is the section of g shifted by m.  For j < n it drops the
    frequencies below 0 of (a * winv) e_j, so column j is the window
    [0, N-1] of w * (a * winv)[n - j:].  The identity check compares the
    literal product of the factor sections against T + K0, so this
    shortcut serves the brackets only.
    """
    g, lead = a.coeffs, np.empty((N, 0), dtype=complex)
    if W is not None:
        n = shift_order(a)
        _check_pair_window(W, N + n)
        w = W.w_coeffs.coeffs
        inner = np.convolve(a.coeffs, W.winv_coeffs.coeffs)
        g = np.convolve(w, inner)
        cols = [np.convolve(w, inner[n - j:])[:N]
                for j in range(m, min(n, N))]
        if cols:
            lead = np.stack(cols, axis=1)
    K, p0, lo = N - m, lead.shape[1], a.lo + m
    first = max(lo, 1 - K)
    stop = min(lo + len(g), N - p0) if p0 < K else first
    return first, g[first - lo:max(first, stop) - lo], lead


def _cast_parts(parts: _Parts) -> _Parts | None:
    """The parts of ``_block_parts`` in the dtype that their block is built
    and reduced in: their real parts (float64) when no imaginary part
    exceeds _REAL_CAST_RTOL times the largest modulus among them, else the
    complex parts unchanged; None when every value is zero (a zero block).
    The parts hold every value that the block shows, and maxima are exact,
    so the verdict is the one the whole assembled block would give."""
    lo, g, lead = parts
    vals = np.concatenate((g, lead.ravel()))
    scale = np.max(np.abs(vals), initial=0.0)
    if scale == 0.0:
        return None
    if np.max(np.abs(vals.imag)) > _REAL_CAST_RTOL * scale:
        return parts
    return lo, g.real, lead.real


def _block(parts: _Parts, N: int, first: int, cols: int) -> np.ndarray:
    """Columns first .. first + cols - 1 of the block of ``_block_parts``,
    in its parts' dtype, with its leading columns written over."""
    lo, g, lead = parts
    B = _toeplitz(lo + first, g, N, cols)
    lead = lead[:, first:first + cols]
    B[:, :lead.shape[1]] = lead
    return B


def _dense_gram(B: np.ndarray) -> np.ndarray:
    """G = B^H B of a C-ordered real or complex N x K block, whose C-order
    upper triangle is what the dense reduction (``_tridiagonal``) and
    eigvalsh (UPLO = 'U') read.

    A real B gives the whole symmetric G by syrk (NumPy's B.T @ B), with no
    transposed copy.  A complex B gives that triangle by zherk from NumPy's
    BLAS (``_numpy_lapack``), zeros below it: no conjugated copy of B, half
    the flops of a GEMM, and a diagonal that is real by construction, so
    the matrix read is exactly Hermitian.  Where NumPy's BLAS lacks zherk,
    G is the GEMM B^H B, Hermitian to rounding.
    """
    lapack = _numpy_lapack()
    if np.isrealobj(B):
        return B.T @ B
    if lapack is None:
        return B.conj().T @ B
    if B.dtype != np.complex128 or not B.flags.c_contiguous:
        raise ValueError("zherk needs a C-ordered complex128 block")
    N, K = B.shape
    G = np.zeros((K, K), dtype=complex)
    lapack.herk(_ROW_MAJOR, _UPPER, _CONJ_TRANS, K, N, 1.0, B.ctypes.data, K,
                0.0, G.ctypes.data, K)
    return G


def _sigma_max(parts: _Parts, N: int, K: int) -> float:
    """sigma_max of the N x K block B of the cast parts (``_cast_parts``) as
    sqrt(lambda_max(G)), G = B^H B, in the parts' dtype.

    G is reduced to a real symmetric tridiagonal T by LAPACK
    (``_tridiagonal``), and lambda_max(T) is taken alone, by bisection
    (``_tridiagonal_top``): O(K) per step, against the O(K^2) of sterf's
    whole spectrum.  The bisection stays exact where the
    top of the spectrum clusters, as it does for a unimodular symbol, where
    G is close to I; LAPACK's single-eigenvalue drivers do not: there stebz
    with RANGE = 'I' returns INFO = 2 and no eigenvalue, and stemr returns
    a value under the top with no error.

    When B has no leading columns and g spans u = len(g) - 1 <=
    K // _BAND_RATIO, G has bandwidth u and is held in band storage
    (``_gram_band``), whose reduction (sbtrd/hbtrd, O(K^2 u)) replaces the
    O(K^3) dense one.  That takes the narrow unweighted blocks: a weighted
    g = w * a * winv runs up to N - 1 - p0 after trimming, since
    ``_block_parts`` refuses shorter pair windows, so it spans at least
    K - 1 when a.lo <= 0 and some column is Toeplitz.  Otherwise B is
    built, G is formed by a rank-k product (``_dense_gram``: syrk or zherk,
    with no transposed or conjugated copy of B, which is freed before the
    reduction) and reduced in place by sytrd/hetrd.  Product and reductions
    both run in NumPy's BLAS and LAPACK, which build the sections too; a
    second BLAS in the process (SciPy's, tried for this step) made it about
    twice as slow at N = 1024 (two BLAS threads, 2-vCPU box), the idle
    workers of one library competing with the other's.  Where NumPy's
    LAPACK does not export the routines (``_numpy_lapack`` is None), every
    block takes the dense G to NumPy's eigvalsh, reading the same upper
    triangle, whose top eigenvalue is sterf's.
    """
    lo, g, lead = parts
    lapack = _numpy_lapack() is not None
    if lapack and not lead.shape[1] and len(g) - 1 <= K // _BAND_RATIO:
        lam = _tridiagonal_top(*_tridiagonal(_gram_band(g, lo, N, K),
                                             band=True))
    else:
        G = _dense_gram(_block(parts, N, 0, K))
        lam = (_tridiagonal_top(*_tridiagonal(G, band=False)) if lapack
               else np.linalg.eigvalsh(G, UPLO="U")[-1])
    return math.sqrt(max(float(lam), 0.0))


def _packet_lower(parts: _Parts, N: int, first: int, L: int,
                  thetas: int) -> float:
    """max over theta_k = 2 pi k / thetas of ||B u_k||, u_k the packet
    L^(-1/2) (e^(i l theta_k))_l on the L columns B of the block of the
    cast parts (``_cast_parts``) from its column first on, from their Gram
    matrix G = B^H B.

    The formula.  ||B u_k||^2 = u_k^H G u_k = (1/L) sum_(p,q) G[p, q]
    e^(i (q - p) theta_k), and e^(i (q - p) theta_k) depends on p - q only
    through j = (p - q) mod thetas.  So with the folded diagonal sums
    c_j = sum of G[p, q] over p - q = j mod thetas (one bincount; exact
    folding, since the grid is uniform), ||B u_k||^2 = (1/L) DFT(c)_k for
    every k at once: O(N L^2 + thetas log thetas) in place of the
    O(N L thetas) of applying the packets.  A complex G need not be exactly
    Hermitian, and the real part of its DFT is taken.  Any real window s on
    the packets enters only as c_j = sum s_p s_q G[p, q].

    Its error (first order in u = 2^-53, gamma_n = n u / (1 - n u); complex
    inner products of length n err by gamma_(n+2), Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.6).  Let nu = || |B| ||_2,
    the norm of the entrywise moduli (nu >= ||B|| >= the value; for
    Toeplitz columns nu <= ||g||_l1).  The computed G satisfies
    |dG| <= gamma_(N+2) |B|^H |B|, bin j sums at most
    n_f = L ceil((2L - 1) / thetas) entries, and an FFT output of length
    T = thetas errs by at most ((1 + eta)^t - 1) sum_j |c_j|, with
    t = log2 T radix-2 passes (T a power of two; a radix-4 pass counts as
    two) and eta = mu + gamma_4 (sqrt 2 + mu), mu the twiddles' error
    (Higham, Thm. 24.2, taken entrywise: each output is reached from each
    input along one path of butterflies with weights of modulus one).
    Every one of these sums is bounded by sum_(p,q) (|B|^H |B|)[p, q] =
    || |B| 1 ||^2 <= L nu^2, so, for the value lambda_k = ||B u_k||^2,

        |computed lambda_k - lambda_k| <= (gamma_(N+2) + gamma_(n_f)
                                          + t eta + u) nu^2,

    and the max over k moves by no more.  Applying the packets directly,
    with the packets' entries in error by delta relative, errs by
    (2 (gamma_(L+2) + delta) + gamma_(2N+1)) nu^2 on the same lambda_k; a
    packet whose phases l theta_k are formed in floating point has
    delta ~ 4 pi L u, one whose phases are reduced mod 2 pi exactly has
    delta <= (6 pi + 4) u.  The two routes agree to the sum of their
    bounds, on lower^2; on lower divide by the sum of the two values, and
    add u/2 of each for its square root.  A real cast, dropping an
    imaginary part E of B, moves lambda_k by at most (2 ||B|| + ||E||) ||E||
    more.  These are worst cases: for rounding
    errors of random sign each gamma_n scales like sqrt(n) (Higham & Mary,
    SIAM J. Sci. Comput. 41, 2019), which is what the suite's blocks show.
    """
    B = _block(parts, N, first, L)
    real = np.isrealobj(B)
    G = B.T @ B if real else B.conj().T @ B
    bins = (np.subtract.outer(np.arange(L), np.arange(L)) % thetas).ravel()
    c = np.bincount(bins, G.real.ravel(), thetas)
    if not real:
        c = c + 1j * np.bincount(bins, G.imag.ravel(), thetas)
    top = float(np.max(np.fft.fft(c).real)) / L
    return math.sqrt(max(top, 0.0))


def compression_deficiency_bound(a: CoeffVector, m: int, N: int) -> float:
    """A-priori beta with ||T_N(a)(I - P_m)||^2 >= (1 - beta) sup|a|^2.

    Derivation (unweighted sections only).  Let the symbol's window be
    [lo, hi], n = hi - lo, s = sup|a| attained at theta_0, and
    f = s^2 - |a|^2: a real trigonometric polynomial of degree n with
    0 <= f <= s^2 and f(theta_0) = f'(theta_0) = 0.  A unit vector u on
    columns j0 <= j < j0 + K, j0 = max(m, ``shift_order(a)``) and
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
    K = N - max(m, shift_order(a)) - max(a.hi, 0)
    if K < 1:
        raise ValueError("section leaves no room for a packet past the cutoff")
    n = a.hi - a.lo
    return (n * math.pi) ** 2 / 8.0 * 4.0 * math.sin(math.pi / (2 * (K + 1))) ** 2


def essential_bracket(a: CoeffVector, W: OuterPair | None,
                      params: BracketParams = BracketParams()) -> NormEstimate:
    """Bracket the essential norm on one shared section A.

    The upper end is ||A (I - P_m)|| = sigma_max(A[:, m:]), the square root
    of the top eigenvalue of the Gram matrix, from one ``_sigma_max``: the
    Gram matrix is reduced to a tridiagonal T, whose top eigenvalue alone is
    found by bisection on a positive-definiteness test (the top of a
    Toeplitz section's singular spectrum clusters too tightly for power
    iteration or LAPACK's single-eigenvalue drivers, but the test stays
    monotone there).  The Gram matrix is held in band or dense storage by
    ``_sigma_max``'s rule; the choice changes sigma_max by rounding only,
    and on a given build it rests on the block's structure alone.  The
    lower end is the largest ||A u_theta|| over the wave packets of the
    module docstring, from the L x L Gram matrix of their columns by one
    length-thetas FFT of its folded diagonal sums (``_packet_lower``, which
    derives its rounding against applying the packets directly).  Both
    ends read the parts of one ``_block_parts`` call, cast once
    (``_cast_parts``); a zero block gives (0, 0).
    """
    N, m, L, thetas = params.N, params.m, params.L, params.thetas
    if not (1 <= m <= N // 4):
        raise ValueError("tail cutoff must satisfy 1 <= m <= N/4")
    if L < 1 or thetas < 1:
        raise ValueError("packet parameters must be positive")
    if m + L > N - max(0, a.hi):
        raise ValueError("wave packet would overflow the section window")
    parts = _cast_parts(_block_parts(a, W, N, m))
    if parts is None:
        return NormEstimate(0.0, 0.0)
    upper = _sigma_max(parts, N, N - m)
    s = min(max(m, shift_order(a)), N - max(0, a.hi) - L)
    lower = _packet_lower(parts, N, s - m, L, thetas)
    # ||A u|| is a certified lower bound for the same sigma_max, so the Gram
    # value may be raised to it without leaving the surrogate.
    upper = max(upper, lower)
    return NormEstimate(lower, upper)

