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
  is held in band storage for a narrow block and densely otherwise.
* lower end: the largest value of ||A u|| over modulated wave packets
  u = L^(-1/2) sum_l e^(i l theta) e_{s+l}, theta on a uniform grid, from
  the column s = min(max(m, n), N - max(0, hi) - L), n = shift_order(a), of
  ``compression_deficiency_bound``'s test vector.  As s >= m they are
  feasible test vectors for A(I - P_m), so the bracket is ordered by
  construction; compact perturbations vanish on such high-frequency
  packets as m grows.  ||A u||^2 = u^H G_L u reads only the L x L Gram
  matrix G_L of those columns; its folded diagonal sums give every angle
  at once by one FFT (``_packet_lower``): O(N L + thetas log thetas).

Both ends read one block, in one dtype: its parts are made once
(``_block_parts``) and cast once (``_cast_parts``), float64 when the
block's values are real, and both take their Gram matrices from the parts
(``_gram``), with the N x K block never formed.  A weighted block refuses
a short outer pair as the section builders do.

Weighted spaces are handled by conjugating with the outer function of the
weight (an isometry onto the unweighted space), so a single flat-metric
Gram structure serves every weight.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .operators import (_check_pair_window, _numpy_lapack, _toeplitz,
                        shift_order)
from .spectral import CoeffVector
from .weights import OuterPair

# A block whose imaginary parts are at most this fraction of its largest
# entry is taken as real for its Gram matrices (a real symmetric G costs
# less to form than the complex Hermitian one, and a quarter as much to
# tridiagonalise).  ``_cast_parts`` applies the rule.
_REAL_CAST_RTOL = 1e-12

# A block whose coefficient window spans at most (N - m) // this ratio
# takes sigma_max from the banded Gram matrix.  Measured crossover of
# ``_sigma_max`` (2 vCPUs, OpenBLAS, two threads, medians of 5, two runs;
# both storages take G from ``_gram`` and end in the same bisection): at
# N - m = 960 the banded path takes 22-23 ms at span 24 against 29-32 ms
# dense, breaks even at span 32 (33-34 against 29-36 ms) and loses by 48
# (44-47 against 29-33 ms); at N - m = 1984 it takes 212-226 ms at span 48
# against 298-307 ms, breaks even at 64 (307-314 against 314-320 ms) and
# loses by 96 (432-443 against 306-319 ms).
_BAND_RATIO = 32

# Lags per chunk of ``_gram``: it holds three arrays of N x this at once
_GRAM_CHUNK = 32


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


def _lapack_info(info: int, what: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} failed (info = {info})")


def _tridiagonal(G: np.ndarray, band: bool) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and off-diagonal e of the real symmetric tridiagonal
    T = Q^H G Q to which LAPACK's Householder reduction takes the Hermitian
    K x K matrix G (Q is not formed), from NumPy's LAPACK
    (``_numpy_lapack``), which must export it.

    With ``band``, G is given by its lower band storage G[d, p] of
    ``_gram`` and reduced by sbtrd/hbtrd in O(K^2 u) (Schwarz, Numer.
    Math. 12, 1968), on a column-major copy.  Otherwise G is the C-ordered
    K x K matrix itself, reduced in place (it is overwritten) by sytrd/hetrd
    with uplo = 'L' on the column-major view of its buffer, which is G^T:
    only G's upper triangle is read (the only one ``_gram`` fills), and
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
    """The parts of ``_block_parts`` in the dtype their Gram matrices are
    formed and reduced in: their real parts (float64) when no imaginary part
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


def _gram(parts: _Parts, N: int, first: int, cols: int,
          band: bool) -> np.ndarray:
    """G = B^H B of the columns first .. first + cols - 1 of the block B of
    the cast parts (``_cast_parts``), in their dtype, with no N x cols
    array formed: with ``band`` in lower band storage ab[d, p] =
    G[p + d, p], d <= u = len(g) - 1; else as a C-ordered cols x cols
    matrix whose upper triangle, the one ``_tridiagonal`` and eigvalsh
    (UPLO = 'U') read, is G's; nothing reads below it.

    Toeplitz column p holds b(t) = g[t - lo] in row p + t, 0 <= row < N, so
    G[p, p + d] sums conj(b(t)) b(t - d) over t in [max(-p, lo + d),
    min(N - 1 - p, hi)].  Where p + d >= -lo the top cut trims nothing, and
    the d-th diagonal is one prefix sum (cumsum over t) of the lag
    products, read at t = min(N - 1 - p, hi) (the displacement structure
    of Kailath, Kung & Morf, J. Math. Anal. Appl. 68, 1979), lags in chunks
    of _GRAM_CHUNK.  The leading columns and those the top cut trims, at
    most n - m, are formed as X; their rows are X^H X and one correlation
    of each with g.  The d = 0 lag is |b|^2: a complex diagonal is real.

    Its rounding (u = 2^-53, gamma_n = n u / (1 - n u); Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 3.1, 3.5-3.6).  Each
    entry sums at most N products, one per row both columns reach (a prefix
    sum adds exact zeros first).  A real product rounds once; each part of
    a complex one errs by at most gamma_2 (|x_r y_r| + |x_i y_i|) <= gamma_2
    |x| |y|, fused or not; a sum of n terms adds gamma_(n-1), in any order.
    So the real and imaginary parts of every entry satisfy

        |G^ - G| <= gamma_(N+1) |B|^H |B|,

    and its modulus gamma_(N+2) |B|^H |B| (sqrt(2) gamma_2 relative per
    complex product): a BLAS product's bounds.  The reductions read the
    Hermitian matrix of the upper triangle, so E = G^ - G is Hermitian,
    ||E||_2 <= || |E| ||_2 <= gamma_(N+2) nu^2, nu = || |B| ||_2 (gamma_N
    if real), and by Weyl sigma_max moves by at most gamma_(N+2) nu^2 /
    (2 sigma_max) to first order.  Two routes that meet the bound, as this
    one and a BLAS product do, agree to twice that and their eigensolvers'.
    """
    lo, g, lead = parts[0] + first, parts[1], parts[2][:, first:first + cols]
    u, p0 = len(g) - 1, lead.shape[1]
    E = min(cols, max(p0, -lo))
    # A[p, d] = G[p, p + d]: read with row stride cols + 1 it is G's upper
    # triangle, and entries past the end of a diagonal fall below it
    A = np.zeros((cols, u + 1 if band else cols + 1), dtype=g.dtype)
    X = np.concatenate((lead, _toeplitz(lo + p0, g, N, E - p0)), axis=1)
    # b(t) for t = 1 - cols .. N - 1 - E: what the other columns show
    run = _toeplitz(lo + cols - 1, g, N + cols - E - 1, 1)[:, 0]
    for j, row in enumerate(X.conj().T @ X):
        if E < cols:
            row = np.r_[row, np.correlate(run, X[:, j], "valid")[::-1]]
        row[j] = row[j].real
        A[j, :cols - j] = row[j:j + A.shape[1]]
    ends = np.clip(N - lo - np.arange(E, cols), 0, u + 1)
    lags = min(u, cols - 1 - E) + 1
    for d in range(0, lags, _GRAM_CHUNK):
        c = min(_GRAM_CHUNK, lags - d)
        # S[1 + t - lo, k] = conj(b(t)) b(t - d - k), below a zero row
        S = np.empty((u + 2, c), dtype=g.dtype)
        S[0] = 0
        np.multiply(g.conj()[:, None], _toeplitz(d, g, u + 1, c), out=S[1:])
        if d == 0:
            S[1:, 0] = g.real ** 2 + g.imag ** 2
        A[E:, d:d + c] = np.cumsum(S, axis=0, out=S)[ends]
    return A.T.conj() if band else A.ravel()[:cols * cols].reshape(cols, cols)


def _sigma_max(parts: _Parts, N: int, K: int) -> float:
    """sigma_max of the N x K block B of the cast parts (``_cast_parts``) as
    sqrt(lambda_max(G)), G = B^H B, in the parts' dtype.

    G is reduced to a real symmetric tridiagonal T by LAPACK
    (``_tridiagonal``), and lambda_max(T) is taken alone, by bisection
    (``_tridiagonal_top``): O(K) per step, against the O(K^2) of sterf's
    whole spectrum.  The bisection stays exact where the top of the
    spectrum clusters, as it does for a unimodular symbol, where G is close
    to I; LAPACK's single-eigenvalue drivers do not: there stebz with
    RANGE = 'I' returns INFO = 2 and no eigenvalue, and stemr returns a
    value under the top with no error.

    G comes from ``_gram``.  When B has no leading columns and g spans
    u = len(g) - 1 <= K // _BAND_RATIO, G has bandwidth u and is held in
    band storage, whose reduction (sbtrd/hbtrd, O(K^2 u)) replaces the
    O(K^3) dense one (sytrd/hetrd, in place).  That takes the narrow
    unweighted blocks: a weighted g = w * a * winv runs up to N - 1 - p0
    after trimming, since ``_block_parts`` refuses shorter pair windows, so
    it spans at least K - 1 when a.lo <= 0 and some column is Toeplitz.
    The reductions run in NumPy's LAPACK; SciPy's, tried too, was about
    twice as slow at N = 1024 (two BLAS threads, 2 vCPUs), the idle workers
    of one library competing with the other's.  Where NumPy's LAPACK lacks
    the routines (``_numpy_lapack`` is None), every block takes the dense G
    to NumPy's eigvalsh, which reads the same upper triangle.
    """
    lo, g, lead = parts
    lapack = _numpy_lapack() is not None
    band = lapack and not lead.shape[1] and len(g) - 1 <= K // _BAND_RATIO
    G = _gram(parts, N, 0, K, band)
    lam = (_tridiagonal_top(*_tridiagonal(G, band)) if lapack
           else np.linalg.eigvalsh(G, UPLO="U")[-1])
    return math.sqrt(max(float(lam), 0.0))


def _packet_lower(parts: _Parts, N: int, first: int, L: int,
                  thetas: int) -> float:
    """max over theta_k = 2 pi k / thetas of ||B u_k||, u_k the packet
    L^(-1/2) (e^(i l theta_k))_l on the L columns B of the block of the
    cast parts (``_cast_parts``) from its column first on, from their Gram
    matrix G = B^H B (``_gram``), its upper triangle mirrored.

    The formula.  ||B u_k||^2 = u_k^H G u_k = (1/L) sum_(p,q) G[p, q]
    e^(i (q - p) theta_k), and e^(i (q - p) theta_k) depends on p - q only
    through j = (p - q) mod thetas.  So with the folded diagonal sums
    c_j = sum of G[p, q] over p - q = j mod thetas (one bincount; exact
    folding, since the grid is uniform), ||B u_k||^2 = (1/L) DFT(c)_k for
    every k at once: O(N L + thetas log thetas) in place of the
    O(N L thetas) of applying the packets.  The mirrored G is exactly
    Hermitian, and the real part of its DFT is taken.  Any real window s on
    the packets enters only as c_j = sum s_p s_q G[p, q].

    Its error (first order in u = 2^-53, gamma_n = n u / (1 - n u); complex
    inner products of length n err by gamma_(n+2), Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.6).  Let nu = || |B| ||_2,
    the norm of the entrywise moduli (nu >= ||B|| >= the value; for
    Toeplitz columns nu <= ||g||_l1).  The computed G satisfies
    |dG| <= gamma_(N+2) |B|^H |B| (``_gram``), bin j sums at most
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
    G = np.triu(_gram(parts, N, first, L, band=False))
    G += np.triu(G, 1).conj().T
    bins = (np.subtract.outer(np.arange(L), np.arange(L)) % thetas).ravel()
    c = np.bincount(bins, G.real.ravel(), thetas)
    if np.iscomplexobj(G):
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

