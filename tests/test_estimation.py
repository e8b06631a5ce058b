"""Essential-norm brackets and their a-priori bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigvals_banded, svdvals
from scipy.linalg.lapack import dsterf

import toepnorm.estimation as est
from toepnorm import (BracketParams, CoeffVector, IndexWindow, NormEstimate,
                      compression_deficiency_bound, essential_bracket,
                      operators, outer_pair, outer_pair_exact,
                      sample_power_weight, symbol_sup)
from toepnorm.acceptance import (bracket_symbols, independence_weights,
                                 run_unweighted_bracket,
                                 run_weight_independence, weighted_bracket)
from toepnorm.estimation import (_BAND_RATIO, _block_parts, _cast_parts,
                                 _gram_band, _sigma_max, _tridiagonal,
                                 _tridiagonal_top)
from toepnorm.weights import OuterPair, PowerWeight

from reference import (block, cast_block, gram_of_block, packet_lower,
                       sigma_max_of_block, tridiagonal_top)


def laurent(lo, coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return CoeffVector(IndexWindow(lo, lo + len(coeffs) - 1), coeffs)


def naive_pair(pw, N):
    return outer_pair(sample_power_weight(pw, 8 * N), IndexWindow(0, N + 15))


SYM_FLAT = laurent(-1, [1.0])
SYM_CURVED = laurent(-1, [1.0, 0.0, 0.0, 0.5])


def sigma_max(a, W, N, m):
    return _sigma_max(_cast_parts(_block_parts(a, W, N, m)), N, N - m)


def dense_sigma_max(monkeypatch, a, W, N, m):
    # _sigma_max in dense storage with eigvalsh, as where NumPy's LAPACK
    # lacks the tridiagonal routines, whatever the block's span
    with monkeypatch.context() as patch:
        patch.setattr(est, "_numpy_lapack", lambda: None)
        return sigma_max(a, W, N, m)


# ------------------------------------- upper end: column-zeroed section norm

def upper(a, W, m, N):
    return essential_bracket(a, W, BracketParams(N=N, m=m, L=16, thetas=16)).upper


def test_essential_upper_identity_symbol():
    assert abs(upper(laurent(0, [1.0]), None, 8, 128) - 1.0) < 1e-8


def test_essential_upper_identity_symbol_weighted():
    from toepnorm import outer_pair_exact
    W = outer_pair_exact(PowerWeight(((0.0, 0.3),)), IndexWindow(0, 255))
    assert abs(upper(laurent(0, [1.0]), W, 8, 128) - 1.0) < 1e-8


def test_essential_upper_pure_shift():
    assert abs(upper(SYM_FLAT, None, 32, 512) - 1.0) < 1e-6


def test_essential_upper_weighted_close_to_sup():
    spec = laurent(-1, [2.0, 0.0, 0.0, 1.0])
    pw = PowerWeight(((0.0, 0.3),))
    up = upper(spec, naive_pair(pw, 1024), 64, 1024)
    sup = symbol_sup(spec)
    assert abs(up - sup) <= 0.03 * sup


def test_essential_upper_monotone_in_m():
    vals = [upper(SYM_CURVED, None, m, 1024) for m in (8, 16, 32, 64)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


def test_deficiency_bound_caps_section_deficiency():
    sup = symbol_sup(SYM_CURVED)
    betas = []
    for N in (64, 128, 256):
        m = N // 16
        beta = compression_deficiency_bound(SYM_CURVED, m, N)
        up = upper(SYM_CURVED, None, m, N)
        assert 0.0 < sup - up <= beta * sup
        betas.append(beta)
    for b_N, b_2N in zip(betas, betas[1:]):
        assert 3.5 < b_N / b_2N < 4.5


def test_essential_upper_parameter_validation():
    for m, L, thetas in ((0, 16, 16), (100, 16, 16), (8, 0, 16), (8, 16, 0)):
        with pytest.raises(ValueError):
            essential_bracket(SYM_FLAT, None,
                              BracketParams(N=128, m=m, L=L, thetas=thetas))


def grid_pair(pw, a, N):
    # the pair of acceptance.weighted_bracket: grid 8N, window [0, N + n - 1]
    return outer_pair(sample_power_weight(pw, 8 * N),
                      IndexWindow(0, N + max(0, -a.lo) - 1))


def test_reciprocal_weights_give_the_same_block():
    """For m >= n the block is the section of g = W * a * V, (W, V) the grid
    pair of w; the grid pair of 1/w is (V, W) in exact arithmetic, since
    log(1/w) = -log w and every step of the construction is odd in the log,
    and convolution commutes.  So B(1/w) = B(w) up to rounding, bounded to
    first order in u = eps/2 with gamma_k = k u / (1 - k u) (Higham 2002,
    3.1 and 24.1), from l1 norms:

    * log samples s, s' of w, 1/w on M = 8N points (pow, log within 1 ulp):
      |s_i + s'_i| <= 2u (2 + |s_i| + |s'_i|);
    * each FFT output is a tree of log2 M butterflies and a twist, so its
      error is at most gamma_L times the l1 norm of its inputs' weights,
      L = 4 log2 M + 2.  Hence the doubled log spectra differ by at most
      M (2u (2 + S) + gamma_L S) in l1, S = mean|s| + mean|s'|, and the
      exponents' samples v, v' by E = that + gamma_L (|c|_1 + |c'|_1), c
      and c' the completed spectra;
    * exp(v') against exp(-v) differs by at most |V_i| (E + 8u), and the
      analysis back adds gamma_L times the samples' means, so each
      coefficient of the pair of 1/w is within
      D = mean(1/w) (E + 8u) + gamma_L (mean w + mean 1/w) of (V, W);
    * by Young's inequality the entries of g' then move by at most
      D |a|_1 (|W|_1 + |V|_1), and each of g, g' = fl(W * (a * V)) carries
      at most gamma_{K + r} |W|_1 |a|_1 |V|_1 (K, r the window lengths).

    The bound is a worst case: at N = 256 it is 4e-11 to 4e-10, while the
    entries differ by at most 4.4e-16, and the blocks of |t-1|^0.3 and
    |t-1|^0.45 differ by 4.4e-5 or more.  The upper ends then agree
    by Weyl's inequality to ||B - B'||_F and the real casts' dropped
    imaginary parts, plus each Gram eigenvalue's rounding,
    (gamma_N + gamma_K) ||B||_F^2 / upper.
    """
    N, m = 256, 64
    M = 8 * N
    params = BracketParams(N=N, m=m)
    u = np.finfo(float).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    def l1(x):
        return float(np.sum(np.abs(x)))

    gL = gamma(4 * int(math.log2(M)) + 2)
    for lam in (0.3, 0.45):
        pws = [PowerWeight(((0.0, lam),)), PowerWeight(((0.0, -lam),))]
        w = sample_power_weight(pws[0], M)
        logs = [np.log(sample_power_weight(pw, M)) for pw in pws]
        S = sum(float(np.mean(np.abs(x))) for x in logs)
        completed = sum(l1(2 * np.fft.fft(x)[:M // 2]) / M for x in logs)
        E = M * (2 * u * (2 + S) + gL * S) + gL * completed
        D = (np.mean(1 / w) * (E + 8 * u)
             + gL * (np.mean(w) + np.mean(1 / w)))
        for _, a in bracket_symbols():
            assert m >= max(0, -a.lo)
            P, Q = (grid_pair(pw, a, N) for pw in pws)
            W, V = P.w_coeffs.coeffs, P.winv_coeffs.coeffs
            ell = l1(a.coeffs)
            tol = (D * ell * (l1(W) + l1(V))
                   + 2 * gamma(len(W) + len(a.coeffs)) * l1(W) * ell * l1(V))
            B, B_ = (block(a, pair, N, m) for pair in (P, Q))
            assert np.max(np.abs(B - B_)) <= tol
            up, up_ = (essential_bracket(a, pair, params).upper
                       for pair in (P, Q))
            K = N - m
            weyl = (np.linalg.norm(B - B_) + np.linalg.norm(B.imag)
                    + np.linalg.norm(B_.imag))
            gram = (gamma(N) + gamma(K)) * np.linalg.norm(B) ** 2 / up
            assert abs(up - up_) <= weyl + 2 * gram


def test_sigma_max_matches_svdvals(monkeypatch):
    # the Gram eigenvalue against a full SVD of the same nonzero block, in
    # the storage the block takes (band for every unweighted case here) and
    # in dense storage
    pw = PowerWeight(((0.0, 0.3),))
    sym_complex = laurent(-1, [1j, 0.0, 0.0, 0.4])
    assert np.max(np.abs(block(sym_complex, None, 64, 16).imag)) > 0.5
    cases = []
    for _, a in bracket_symbols():
        cases += [(a, None, 1024, 64), (a, grid_pair(pw, a, 1024), 1024, 64)]
    cases += [
        (sym_complex, None, 256, 16),       # Hermitian G
        (SYM_FLAT, None, 512, 32),          # clustered top: G = I
        (laurent(0, [1.0]),
         outer_pair_exact(PowerWeight(((0.0, 0.3),)), IndexWindow(0, 255)),
         128, 8),
        (laurent(0, [1.0]), None, 128, 8),  # unimodular: G = I
    ]
    for a, W, N, m in cases:
        ref = svdvals(block(a, W, N, m))[0]
        assert abs(dense_sigma_max(monkeypatch, a, W, N, m) - ref) \
            <= 1e-14 * ref
        assert abs(sigma_max(a, W, N, m) - ref) <= 1e-14 * ref


def test_zero_block_bracket_is_exactly_zero(monkeypatch):
    # a zero symbol, and e_{-40} at N = 32, whose one value lies below every
    # column's window: the cast finds no nonzero value, and the bracket is
    # (0, 0) without a sigma_max or packet step, whatever the LAPACK
    def unreached(*args):
        raise AssertionError("zero block reached a norm routine")

    monkeypatch.setattr(est, "_sigma_max", unreached)
    monkeypatch.setattr(est, "_packet_lower", unreached)
    params = BracketParams(N=32, m=4, L=8, thetas=16)
    for lapack in (est._numpy_lapack, lambda: None):
        with monkeypatch.context() as patch:
            patch.setattr(est, "_numpy_lapack", lapack)
            for a in (laurent(-1, [0.0, 0.0]), laurent(-40, [1.0])):
                got = essential_bracket(a, None, params)
                assert (got.lower, got.upper) == (0.0, 0.0)
                assert not np.signbit([got.lower, got.upper]).any()


@pytest.fixture
def grams(monkeypatch):
    # the dense Gram matrices that _sigma_max forms, recorded where they are
    # reduced (or, where NumPy's LAPACK lacks the routines, handed to
    # eigvalsh)
    kept = []

    def recorded(f):
        def call(G, *args, **kwargs):
            kept.append(G.copy())
            return f(G, *args, **kwargs)
        return call

    monkeypatch.setattr(est, "_tridiagonal", recorded(est._tridiagonal))
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded(np.linalg.eigvalsh))
    return kept


def test_dense_upper_matches_whole_block_cast_bitwise(grams):
    # the cast decided on the coefficient window gives the Gram matrix, to
    # the byte, of the cast decided on the whole assembled block (through
    # the same product), on both branches and with leading conjugated
    # columns (m < n = 3 for e_{-3} h)
    weights = [PowerWeight(((0.0, 0.3),)),
               PowerWeight(((0.0, 0.25), (math.pi, -0.25)))]
    cases = [(a, grid_pair(pw, a, 1024), 1024, 64)
             for _, a in bracket_symbols() for pw in weights]
    sym_complex = laurent(-1, [1j, 0.0, 0.0, 0.4])
    cases.append((sym_complex, grid_pair(weights[0], sym_complex, 256),
                  256, 16))                         # Hermitian G
    for h in ([1.0, 0.5, -0.3, 0.2, 0.1], [1.0, 0.5j, -0.3, 0.2, 0.1]):
        a = laurent(-3, h)
        cases += [(a, grid_pair(weights[0], a, 128), 128, m) for m in (1, 2)]
    deep = laurent(-40, [1.0, 0.0, 0.5])     # n > N: no Toeplitz column
    cases.append((deep, grid_pair(weights[0], deep, 32), 32, 4))
    real = []
    for a, W, N, m in cases:
        B = block(a, W, N, m)
        real.append(np.max(np.abs(B.imag)) <= 1e-12 * np.max(np.abs(B)))
        ref = est._dense_gram(cast_block(B))
        del grams[:]
        up = sigma_max(a, W, N, m)
        assert len(grams) == 1 and grams[0].dtype == ref.dtype
        assert grams[0].tobytes() == ref.tobytes()
        if N == 1024:
            est_ = essential_bracket(a, W, BracketParams(N=N, m=m))
            assert est_.upper == max(up, est_.lower)
    # every real case carries the rounding-level imaginary part of g
    assert real == [True] * 6 + [False] + [True] * 2 + [False] * 2 + [True]
    assert all(np.any(block(a, W, N, m).imag)
               for (a, W, N, m), r in zip(cases, real) if r)


def test_bracket_builds_no_section_wider_than_its_block(monkeypatch):
    # for m < n = 3 the leading columns come from convolutions of the
    # coefficient windows, not from the literal product, whose factor
    # sections are N x (N + 3) and N x N
    N, m = 256, 1
    toeplitz, built = operators._toeplitz, []

    def spy(vals, cols):
        S = toeplitz(vals, cols)
        built.append(S.size)
        return S

    monkeypatch.setattr(operators, "_toeplitz", spy)
    monkeypatch.setattr(est, "_toeplitz", spy)
    a = laurent(-3, [1.0, 0.5, -0.3, 0.2, 0.1])
    W = outer_pair_exact(PowerWeight(((0.0, 0.3),)), IndexWindow(0, N + 2))
    essential_bracket(a, W, BracketParams(N=N, m=m, L=32, thetas=16))
    assert built and max(built) <= N * (N - m)


def test_bracket_builds_its_block_once(monkeypatch):
    # both ends read the parts of one _block_parts call, with and without a
    # weight, past (m >= n) and inside (m < n = 3) the leading columns
    calls = []

    def spy(*args):
        calls.append(args)
        return block_parts(*args)

    block_parts = est._block_parts
    monkeypatch.setattr(est, "_block_parts", spy)
    N = 256
    a = laurent(-3, [1.0, 0.5, -0.3, 0.2, 0.1])
    W = outer_pair_exact(PowerWeight(((0.0, 0.3),)), IndexWindow(0, N + 2))
    for pair in (None, W):
        for m in (1, 16):
            del calls[:]
            essential_bracket(a, pair, BracketParams(N=N, m=m, L=16,
                                                     thetas=16))
            assert len(calls) == 1


def test_real_cast_covers_the_leading_columns(grams):
    # W = 1 + i eps z and a = e_{-2}: g = W a W^{-1} is exactly e_{-2}, so
    # its window is real, while the leading column j = 1 < n = 2 is
    # P((1 - W) / z) = -i eps e_0.  Casting on g alone would drop it and
    # give sigma_max = 1 instead of sqrt(1 + eps^2).
    eps, N, m = 1e-6, 64, 1
    w = np.zeros(N + 16, dtype=complex)
    w[:2] = 1.0, 1j * eps
    # successive products, so that w * winv cancels exactly past k = 0
    winv = np.cumprod(np.r_[1.0, np.full(N + 15, -1j * eps)])
    W = OuterPair(CoeffVector(IndexWindow(0, N + 15), w),
                  CoeffVector(IndexWindow(0, N + 15), winv))
    a = laurent(-2, [1.0])
    B = block(a, W, N, m)
    assert abs(B[0, 0] + 1j * eps) <= 1e-22
    assert not np.any(B[:, 1:].imag)
    up = sigma_max(a, W, N, m)
    assert [G.tobytes() for G in grams] == [
        est._dense_gram(cast_block(B)).tobytes()]
    assert abs(up - math.sqrt(1.0 + eps ** 2)) <= 1e-15 and up > 1.0


def test_weighted_bracket_peak_memory():
    """Traced peak of one real weighted bracket at N = 1024, m = 64, in units
    of one real block, N (N - m) 8 bytes: the block, its (N - m)^2 Gram
    matrix (0.94 units), and the N x L packet columns with their L x L Gram
    matrix, with no complex block or real copy beside them.  LAPACK's
    workspace, including eigvalsh's copy of G, is allocated outside Python
    and not traced."""
    params = BracketParams()
    N, m = params.N, params.m
    a = bracket_symbols()[1][1]
    W = grid_pair(PowerWeight(((0.0, 0.3),)), a, N)
    essential_bracket(a, W, params)
    tracemalloc.start()
    try:
        essential_bracket(a, W, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * N * (N - m) * 8


def test_complex_weighted_bracket_peak_memory():
    """Traced peak of one complex weighted bracket at N = 1024, m = 64, in
    units of N (N - m) 8 bytes: the complex block (2 units) and its
    (N - m)^2 complex Gram matrix (2 (N - m) / N = 1.875 units), with no
    conjugated copy of the block beside them, and 0.25 units for the
    coefficient windows, the packet columns (2 L / (N - m) = 0.13 units)
    and their L x L Gram matrix."""
    params = BracketParams()
    N, m = params.N, params.m
    a = laurent(-1, [1j, 0.0, 0.0, 0.4])
    W = grid_pair(PowerWeight(((0.0, 0.3),)), a, N)
    essential_bracket(a, W, params)
    tracemalloc.start()
    try:
        essential_bracket(a, W, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 + 2 * (N - m) / N + 0.25) * N * (N - m) * 8


@pytest.mark.parametrize("N, K", [(6, 5), (70, 63), (128, 127), (300, 17),
                                  (1024, 960)])
def test_complex_dense_gram_is_exactly_hermitian(N, K):
    # the triangle that both dense reductions read, zherk's, defines an
    # exactly Hermitian G with a real diagonal (a GEMM's diagonal keeps a
    # rounding-level imaginary part at these sizes), within rounding of the
    # GEMM: each entry is a complex inner product of N terms, so it errs by
    # at most sqrt(2) gamma_(N+2) (|B|^T |B|) on either route (Higham,
    # 3.5-3.6)
    rng = np.random.default_rng([N, K])
    B = rng.standard_normal((N, K)) + 1j * rng.standard_normal((N, K))
    G = est._dense_gram(B)
    assert G.dtype == complex and not np.any(np.tril(G, -1))
    assert not np.any(np.diagonal(G).imag)
    gamma = (N + 2) * U / (1 - (N + 2) * U)
    bound = 2 * math.sqrt(2) * gamma * (np.abs(B).T @ np.abs(B))
    assert np.all(np.triu(np.abs(G - gram_of_block(B))) <= bound)
    if est._numpy_lapack() is None:
        return
    # only the upper triangle is read: a NaN below it changes nothing
    marked = G.copy()
    marked[np.tril_indices(K, -1)] = np.nan
    d, e = _tridiagonal(G.copy(), band=False)
    dm, em = _tridiagonal(marked, band=False)
    assert d.tobytes() == dm.tobytes() and e.tobytes() == em.tobytes()


def random_laurent(rng, lo, span, complex_coeffs):
    c = rng.standard_normal(span + 1)
    if complex_coeffs:
        c = c + 1j * rng.standard_normal(span + 1)
    return laurent(lo, c)


def test_gram_band_matches_dense_gram():
    # N = 256, m = 16: span 7 = (N - m) // _BAND_RATIO is the cutoff
    rng = np.random.default_rng(7)
    cases = [(SYM_CURVED, 1024, 64),
             (laurent(-2, [2.0, 0.0, 0.0, 1.0, 0.0, 0.3]), 1024, 64)]
    for complex_coeffs in (False, True):
        cases += [
            (random_laurent(rng, -3, 4, complex_coeffs), 128, 8),
            (random_laurent(rng, -6, 5, complex_coeffs), 64, 2),  # top cut
            (random_laurent(rng, -3, 7, complex_coeffs), 256, 16),
        ]
    for a, N, m in cases:
        B = block(a, None, N, m)
        G = B.conj().T @ B
        lo, g, _ = _block_parts(a, None, N, m)
        ab = _gram_band(g, lo, N, N - m)
        K, scale = N - m, np.max(np.abs(G))
        for d in range(a.hi - a.lo + 1):
            dev = np.max(np.abs(ab[d, :K - d] - np.diagonal(G, -d)))
            assert dev <= 1e-15 * scale


def sterf(d, e):
    # every eigenvalue of the tridiagonal (d, e), ascending, from SciPy's
    # sterf, whose wrapper wants e of length 1 for a 1 x 1 matrix
    lam, info = dsterf(d, e if len(d) > 1 else np.zeros(1))
    assert info == 0
    return lam


@pytest.mark.parametrize("a, N, m", [
    (laurent(-2, [2.0, 0.0, 0.0, 1.0, 0.0, 0.3]), 1024, 64),   # real band
    (laurent(-1, [1j, 0.0, 0.0, 0.4]), 512, 32),              # complex band
    (laurent(-6, [0.3, 1.0, 0.5j, -0.2, 0.1, 0.7]), 256, 2),  # top cut
    (laurent(-3, np.linspace(1.0, 2.0, 8) * 1j ** np.arange(8)),
     256, 16),                                     # span 7 at the cutoff
    (laurent(-1, [0.0, 0.0]), 64, 8),                         # zero band
])
def test_numpy_lapack_band_driver_matches_scipy_bitwise(a, N, m):
    # sterf of the band reduction through NumPy's LAPACK is sbevd/hbevd
    # through SciPy, to the bit
    if est._numpy_lapack() is None:
        pytest.skip("NumPy's LAPACK does not export the reductions")
    assert a.hi - a.lo <= (N - m) // _BAND_RATIO
    c = a.coeffs.real if not np.any(a.coeffs.imag) else a.coeffs
    ab = _gram_band(c, a.lo + m, N, N - m)
    lam = sterf(*_tridiagonal(ab, band=True))
    assert lam.tobytes() == eigvals_banded(ab, lower=True).tobytes()
    if not np.any(c):
        # the cast step stops a zero block before sigma_max
        assert _cast_parts(_block_parts(a, None, N, m)) is None
        assert not np.any(lam)


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_reduction_matches_eigvalsh_bitwise(dtype):
    # sterf of the in-place dense reduction is NumPy's eigvalsh (syevd or
    # heevd, uplo 'L'), to the bit, for real symmetric and Hermitian G
    if est._numpy_lapack() is None:
        pytest.skip("NumPy's LAPACK does not export the reductions")
    rng = np.random.default_rng(11)
    for K in (1, 2, 5, 64, 300):
        B = rng.standard_normal((K + 7, K))
        if dtype is complex:
            B = B + 1j * rng.standard_normal((K + 7, K))
        G = B.conj().T @ B
        G = (G + G.conj().T) / 2  # exactly Hermitian
        ref = np.linalg.eigvalsh(G)
        lam = sterf(*_tridiagonal(G.copy(), band=False))
        assert lam.tobytes() == ref.tobytes()


def test_bracket_without_band_driver_takes_the_dense_path(monkeypatch):
    # a NumPy whose LAPACK lacks the tridiagonal routines gets the dense
    # upper end from eigvalsh, bitwise, on blocks that band storage would
    # take
    params = BracketParams(N=256, m=16, L=16, thetas=16)
    cases = [a for _, a in bracket_symbols()]
    cases += [laurent(-1, [1j, 0.0, 0.0, 0.4]), laurent(-1, [0.0, 0.0])]
    monkeypatch.setattr(est, "_numpy_lapack", lambda: None)
    for name in ("_gram_band", "_tridiagonal", "_tridiagonal_top"):
        monkeypatch.setattr(est, name, None)  # never called
    for a in cases:
        assert a.hi - a.lo <= (params.N - params.m) // _BAND_RATIO
        bracket = essential_bracket(a, None, params)
        dense = sigma_max_of_block(block(a, None, params.N, params.m))
        assert bracket.upper == max(dense, bracket.lower)


def test_band_driver_is_numpys_lapack():
    # NumPy's scipy-openblas wheels export the routines, so the dense path
    # must not stand in for them silently where they are installed
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"NumPy's LAPACK is {lapack.get('name')!r}")
    assert est._numpy_lapack() is not None


def test_band_driver_failure_raises_linalg_error():
    # LAPACKE refuses a matrix holding a NaN: the band (argument 6 of
    # sbtrd/hbtrd) and the dense one (argument 4 of sytrd/hetrd)
    if est._numpy_lapack() is None:
        pytest.skip("NumPy's LAPACK does not export the reductions")
    for dtype in (float, complex):
        with pytest.raises(np.linalg.LinAlgError, match="info = -6"):
            _tridiagonal(np.full((2, 8), np.nan, dtype=dtype), band=True)
        with pytest.raises(np.linalg.LinAlgError, match="info = -4"):
            _tridiagonal(np.full((8, 8), np.nan, dtype=dtype), band=False)


def test_bracket_both_sides_of_band_cutoff(monkeypatch):
    # the storage that ran, recorded at its tridiagonal reduction
    if est._numpy_lapack() is None:
        pytest.skip("NumPy's LAPACK does not export the reductions")
    taken, reduce = [], est._tridiagonal

    def recorded(G, band):
        taken.append("band" if band else "dense")
        return reduce(G, band)

    monkeypatch.setattr(est, "_tridiagonal", recorded)
    params = BracketParams(N=256, m=16, L=16, thetas=16)
    cutoff = (params.N - params.m) // _BAND_RATIO
    rng = np.random.default_rng(3)
    for span, path in ((cutoff, "band"), (cutoff + 1, "dense")):
        a = random_laurent(rng, -3, span, True)
        ref = svdvals(block(a, None, params.N, params.m))[0]
        del taken[:]
        assert abs(essential_bracket(a, None, params).upper - ref) \
            <= 1e-14 * ref
        assert taken == [path]


# --------------------------------- the top eigenvalue of the tridiagonal T

U = 2.0 ** -53
EXACT_REFERENCE = np.finfo(np.longdouble).nmant >= 63


def gershgorin(d, e):
    # max(|d_i| + |e_(i-1)| + |e_i|), a bound on ||T||_2
    r = np.abs(e)
    return float(np.max(np.abs(d) + np.r_[r, 0.0] + np.r_[0.0, r]))


def top_bound(lam, e):
    """2 u |lambda| + 5 u max|e|, the bound on |_tridiagonal_top -
    lambda_max(T)| that ``_tridiagonal_top`` derives, with 1e-9 relative for
    its O(u^2) terms and u * tiny absolute for underflow."""
    return (U * (2.0 * abs(lam) + 5.0 * float(np.max(np.abs(e), initial=0.0)))
            * (1 + 1e-9) + U * np.finfo(float).tiny)


def sterf_bound(lam, d, e):
    """The bisection's bound plus sterf's backward error, p(K) u ||T||_2,
    with p(K) = sqrt(K) (the probabilistic growth of Higham & Mary, SIAM J.
    Sci. Comput. 41, 2019)."""
    return top_bound(lam, e) + math.sqrt(len(d)) * U * gershgorin(d, e)


def check_top(d, e):
    top = _tridiagonal_top(d, e)
    ref = sterf(d, e)[-1]
    assert abs(top - ref) <= sterf_bound(ref, d, e)
    if EXACT_REFERENCE:  # with the reference's 2^-60 relative and rounding
        ref = tridiagonal_top(d, e)
        slack = 2.0 ** -59 * (abs(ref) + np.max(np.abs(e), initial=0.0))
        assert abs(top - ref) <= top_bound(ref, e) + slack
    return top


@pytest.fixture
def pttrf_calls(monkeypatch):
    # counts the LDL^T factorisations that the bisection makes
    if est._numpy_lapack() is None:
        pytest.skip("NumPy's LAPACK does not export the factorisation")
    lapack = est._numpy_lapack()
    calls = []

    def counted(*args):
        calls.append(args[0])
        return lapack.pttrf(*args)

    monkeypatch.setattr(est, "_numpy_lapack",
                        lambda: lapack._replace(pttrf=counted))
    return calls


def test_tridiagonal_top_matches_sterf_on_the_suite_blocks(criterion):
    # every Gram reduction of the brackets that the verification suite runs
    reductions = [de for runner in (run_unweighted_bracket,
                                    run_weight_independence)
                  if criterion(runner)
                  for de in criterion.tridiagonals[runner]]
    if est._numpy_lapack() is None:
        pytest.skip("NumPy's LAPACK does not export the reductions")
    assert len(reductions) == 3 + 2 * (3 + 3 * 3)
    for d, e in reductions:
        ref = sterf(d, e)[-1]
        assert abs(_tridiagonal_top(d, e) - ref) <= sterf_bound(ref, d, e)


@given(st.integers(1, 40).flatmap(lambda K: st.tuples(
    st.lists(st.floats(-1e3, 1e3), min_size=K, max_size=K),
    st.lists(st.floats(-1e3, 1e3), min_size=K - 1, max_size=K - 1))))
def test_tridiagonal_top_matches_sterf_on_drawn_tridiagonals(de):
    if est._numpy_lapack() is None:
        pytest.skip("NumPy's LAPACK does not export the factorisation")
    check_top(np.array(de[0]), np.array(de[1], dtype=float))


def test_tridiagonal_top_on_clusters(pttrf_calls):
    # tight clusters at the top, where stebz fails (INFO = 2) and stemr
    # returns a value under the top with no error
    rng = np.random.default_rng(5)
    K = 960
    unit = (1.0 + 1e-16 * rng.standard_normal(K),
            1e-17 * rng.standard_normal(K - 1))
    e = 1e-15 * rng.standard_normal(K - 1)
    e[::2] = 0.0
    four = (4.0 + 1e-13 * rng.standard_normal(K), e)
    for d, e in (unit, four):
        del pttrf_calls[:]
        check_top(d, e)
        assert 0 < len(pttrf_calls) <= 65
    identity = _tridiagonal_top(np.ones(K), np.zeros(K - 1))
    assert identity == 1.0 and math.sqrt(identity) == 1.0
    assert sigma_max(laurent(0, [1.0]), None, 128, 8) == 1.0


def test_tridiagonal_top_of_order_one_and_two(pttrf_calls):
    empty = np.zeros(0)
    for x in (3.0, -2.5, 0.0, 1e-300):
        assert _tridiagonal_top(np.array([x]), empty) == x
    # the Gershgorin bound 2 is the top itself, so it fails the test and
    # the search goes on above it, and still ends within 65 factorisations
    del pttrf_calls[:]
    assert _tridiagonal_top(np.array([1.0, 1.0]), np.array([1.0])) == 2.0
    assert 0 < len(pttrf_calls) <= 65
    for d, e in (([-1e300, 1e300], [1e300]), ([0.0, 0.0], [1e-300])):
        del pttrf_calls[:]
        check_top(np.array(d), np.array(e))
        assert len(pttrf_calls) <= 65


def test_tridiagonal_top_refuses_nan(pttrf_calls):
    # a NaN in d, or in e through the Gershgorin bound, makes the first
    # shifted diagonal s - d hold a NaN, which LAPACKE refuses with
    # info = -2; that raises rather than steering the bisection
    for d, e in ((np.r_[1.0, np.nan, 1.0, 1.0], np.full(3, 0.5)),
                 (np.ones(4), np.r_[0.5, np.nan, 0.5])):
        del pttrf_calls[:]
        with pytest.raises(np.linalg.LinAlgError, match="info = -2"):
            _tridiagonal_top(d, e)
        assert len(pttrf_calls) == 1


def test_banded_upper_matches_dense_path(monkeypatch):
    params = BracketParams()
    for _, a in bracket_symbols():
        dense = dense_sigma_max(monkeypatch, a, None, params.N, params.m)
        up = essential_bracket(a, None, params).upper
        assert abs(up - dense) <= 4e-15 * dense


# ----------------------------------------------- lower end: wave-packet bound

U = 2.0 ** -53


def gamma(n):
    return n * U / (1 - n * U)


def packet_tolerance(B, lower, ref, thetas, cast):
    """The bound of ``_packet_lower``'s docstring on |lower - ref|, ref the
    direct route of ``reference.packet_lower`` on the complex columns B:
    the Gram route's and the direct route's errors on lower^2, with the
    twiddles of the FFT taken to 2 u and, where the whole block was cast to
    real, the dropped imaginary part E of B, divided by lower + ref, and
    the square roots' rounding."""
    N, L = B.shape
    nu = np.linalg.norm(np.abs(B), 2)
    mu = 2 * U
    eta = mu + gamma(4) * (math.sqrt(2.0) + mu)
    passes = math.ceil(math.log2(thetas)) if thetas > 1 else 0
    n_f = L * math.ceil((2 * L - 1) / thetas)
    gram = gamma(N + 2) + gamma(n_f) + passes * eta + U
    direct = 2 * (gamma(L + 2) + (6 * math.pi + 4) * U) + gamma(2 * N + 1)
    e = np.linalg.norm(B.imag, 2) if cast else 0.0
    return (((gram + direct) * nu ** 2 + (2 * nu + e) * e) / (lower + ref)
            + U * max(lower, ref))


def check_packet_lower(a, W, N, m, L, thetas):
    # the cast is the whole block's (reference.cast_block), the packets read
    # its first L columns
    lower = est._packet_lower(_cast_parts(_block_parts(a, W, N, m)), N, L,
                              thetas)
    whole = block(a, W, N, m)
    cast = np.isrealobj(cast_block(whole))
    B = whole[:, :L]
    ref = packet_lower(B, thetas)
    assert abs(lower - ref) <= packet_tolerance(B, lower, ref, thetas, cast)
    return lower, ref


def test_packet_lower_matches_direct_route_on_the_suite():
    # the suite's symbols, unweighted and with the grid pair of each
    # independence weight, at the suite's parameters
    params = BracketParams()
    N = params.N
    for _, a in bracket_symbols():
        for W in [None] + [grid_pair(pw, a, N)
                           for pw in independence_weights()]:
            check_packet_lower(a, W, N, params.m, params.L, params.thetas)


def test_packet_lower_complex_symbol_off_axis_exact_pair():
    N, m = 1024, 64
    a = laurent(-1, [1j, 0.0, 0.0, 0.4])
    W = outer_pair_exact(PowerWeight(((1.0, 0.3),)), IndexWindow(0, N))
    B = block(a, W, N, m, 64)
    assert np.max(np.abs(B.imag)) > 0.1
    check_packet_lower(a, W, N, m, 64, 256)


def test_packet_lower_with_leading_columns():
    # m = 1 < n = 3: the first two packet columns are conjugated columns
    N, m = 128, 1
    W = outer_pair_exact(PowerWeight(((0.0, 0.3),)), IndexWindow(0, N + 2))
    for h in ([1.0, 0.5, -0.3, 0.2, 0.1], [1.0, 0.5j, -0.3, 0.2, 0.1]):
        a = laurent(-3, h)
        assert _block_parts(a, W, N, m)[2].shape[1] == 2
        check_packet_lower(a, W, N, m, 16, 64)


@pytest.mark.parametrize("L,thetas", [(64, 32), (64, 1), (1, 256), (1, 1)])
def test_packet_lower_fold_and_degenerate_sizes(L, thetas):
    # thetas < 2L - 1 folds several diagonals onto one bin; thetas = 1 is
    # the unmodulated packet, L = 1 one column at every angle
    N, m = 256, 16
    a = bracket_symbols()[2][1]
    for W in (None, grid_pair(PowerWeight(((0.0, 0.3),)), a, N)):
        lower, _ = check_packet_lower(a, W, N, m, L, thetas)
        if L == 1:
            col = block(a, W, N, m, 1)[:, 0]
            assert abs(lower - np.linalg.norm(col)) <= 1e-14 * lower


def test_both_ends_read_one_cast(monkeypatch):
    # with m + L <= n the packet columns miss e_{-40}: on their own they
    # hold 1e-3 e_{-10} + 1e-13i e_{-9}, complex by the cast rule, while the
    # whole block, scaled by e_{-40}, is real.  Both ends build the real
    # block, and the lower end stays within _packet_lower's bound of the
    # direct route, the real cast's term included.
    N, m, L, thetas = 128, 4, 16, 64
    a = laurent(-40, np.r_[1.0, np.zeros(29), 1e-3, 1e-13j])
    built, block_ = [], est._block

    def spy(parts, N, cols):
        B = block_(parts, N, cols)
        built.append((cols, B.dtype))
        return B

    monkeypatch.setattr(est, "_block", spy)
    got = essential_bracket(a, None, BracketParams(N=N, m=m, L=L,
                                                   thetas=thetas))
    assert built == [(N - m, np.float64), (L, np.float64)]
    assert got.lower <= got.upper
    assert np.iscomplexobj(cast_block(block(a, None, N, m, L)))
    assert np.isrealobj(cast_block(block(a, None, N, m)))
    assert check_packet_lower(a, None, N, m, L, thetas)[0] == got.lower


def test_packet_lower_of_the_shift_is_exactly_one():
    # e_{-1}: the packet columns are orthonormal, G = I, every c_j but c_0
    # is 0 and the FFT of (L, 0, ..., 0) is L at every angle
    assert essential_bracket(bracket_symbols()[0][1], None,
                             BracketParams()).lower == 1.0


def test_packet_lower_peak_memory_is_below_one_product():
    """Traced peak of one unweighted bracket at N = 1024, L = 64,
    thetas = 4096.  Applying the packets directly forms B u_k for every k,
    an N x thetas complex array of N thetas 16 bytes (64 MiB here), so its
    peak lies above that.  The Gram route holds the band Gram storage and
    its index arrays (O((N - m) span)), the N x L block, its L x L Gram
    matrix and bin indices, and length-thetas transforms: O(N L + L^2 +
    thetas), a few MiB, so the peak stays below that one array."""
    params = BracketParams(thetas=4096)
    a = bracket_symbols()[1][1]
    essential_bracket(a, None, params)
    tracemalloc.start()
    try:
        essential_bracket(a, None, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.N * params.thetas * 16


def test_lower_identity_symbol_exact():
    est = essential_bracket(laurent(0, [1.0]), None,
                            BracketParams(N=256, m=16, L=32, thetas=64))
    assert abs(est.lower - 1.0) < 1e-12


def test_lower_pure_shift():
    est = essential_bracket(SYM_FLAT, None,
                            BracketParams(N=512, m=64, L=64, thetas=16))
    assert est.lower >= 0.99


def test_lower_within_three_percent_of_sup():
    spec = laurent(-1, [2.0, 0.0, 0.0, 1.0])
    sup = symbol_sup(spec)
    est = essential_bracket(spec, None,
                            BracketParams(N=512, m=64, L=128, thetas=256))
    assert sup * 0.97 <= est.lower <= sup + 1e-9


def test_lower_rejects_overflowing_packet():
    # hi = 2: the packet's last column m + L - 1 must stay below N - 2
    essential_bracket(SYM_CURVED, None, BracketParams(N=64, m=16, L=46, thetas=4))
    with pytest.raises(ValueError, match="overflow"):
        essential_bracket(SYM_CURVED, None,
                          BracketParams(N=64, m=16, L=47, thetas=4))


# ----------------------------------------------------------- essential_bracket

def test_bracket_identity_symbol_tight():
    est = essential_bracket(laurent(0, [1.0]), None,
                            BracketParams(N=256, m=16, L=32, thetas=16))
    assert abs(est.lower - 1.0) < 1e-12
    assert abs(est.upper - 1.0) < 1e-9


def test_bracket_default_parameters_quality():
    est = essential_bracket(SYM_CURVED, None, BracketParams())
    sup = symbol_sup(SYM_CURVED)
    assert est.lower <= est.upper <= sup + 1e-12
    assert est.upper >= sup * (1 - 1e-4)
    assert (est.upper - est.lower) <= 0.04 * sup


def test_bracket_weighted_overlaps_unweighted():
    params = BracketParams(N=512, m=32, L=32, thetas=64)
    base = essential_bracket(SYM_CURVED, None, params)
    for lam in (0.3, -0.3):
        W = naive_pair(PowerWeight(((0.0, lam),)), 512)
        est = essential_bracket(SYM_CURVED, W, params)
        assert est.lower <= base.upper and base.lower <= est.upper


def test_bracket_scale_equivariance():
    params = BracketParams(N=256, m=16, L=32, thetas=32)
    base = essential_bracket(SYM_CURVED, None, params)
    scaled_sym = CoeffVector(SYM_CURVED.window, 2.5 * SYM_CURVED.coeffs)
    scaled = essential_bracket(scaled_sym, None, params)
    assert abs(scaled.lower - 2.5 * base.lower) <= 1e-12 * scaled.lower
    assert abs(scaled.upper - 2.5 * base.upper) <= 1e-12 * scaled.upper


def test_bracket_trivial_weight_is_bitwise_unweighted():
    # acceptance.weighted_bracket gives w == 1 the unweighted bracket itself;
    # its grid pair yields the same numbers bitwise
    params = BracketParams(N=256)
    trivial = PowerWeight(((0.0, 0.0),))
    for _, a in bracket_symbols():
        base = essential_bracket(a, None, params)
        assert weighted_bracket(a, trivial, params, base) is base
        assert essential_bracket(a, grid_pair(trivial, a, params.N),
                                 params) == base


def test_norm_estimate_validation():
    with pytest.raises(ValueError):
        NormEstimate(2.0, 1.0)

