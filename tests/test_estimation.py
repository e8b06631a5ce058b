"""Essential-norm brackets and their a-priori bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvals_banded, svdvals

import toepnorm.estimation as est
from toepnorm import (BracketParams, CoeffVector, IndexWindow, NormEstimate,
                      compression_deficiency_bound, essential_bracket,
                      outer_pair, outer_pair_exact, sample_power_weight,
                      symbol_sup)
from toepnorm.acceptance import bracket_symbols
from toepnorm.estimation import (_BAND_RATIO, _band_eigvalsh, _gram_band,
                                 _sigma_max_banded, _sigma_max_dense,
                                 assemble_section)
from toepnorm.weights import OuterPair, PowerWeight

from reference import sigma_max_of_block


def laurent(lo, coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return CoeffVector(IndexWindow(lo, lo + len(coeffs) - 1), coeffs)


def naive_pair(pw, N):
    return outer_pair(sample_power_weight(pw, 8 * N), IndexWindow(0, N + 15))


SYM_FLAT = laurent(-1, [1.0])
SYM_CURVED = laurent(-1, [1.0, 0.0, 0.0, 0.5])


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
    # the pair of acceptance.weighted_brackets: grid 8N, window N + n + 15
    return outer_pair(sample_power_weight(pw, 8 * N),
                      IndexWindow(0, N + max(0, -a.lo) + 15))


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
        w = sample_power_weight(pws[0], M).samples.real
        logs = [np.log(sample_power_weight(pw, M).samples.real) for pw in pws]
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
            B, B_ = (assemble_section(a, pair, N, m) for pair in (P, Q))
            assert np.max(np.abs(B - B_)) <= tol
            up, up_ = (essential_bracket(a, pair, params).upper
                       for pair in (P, Q))
            K = N - m
            weyl = (np.linalg.norm(B - B_) + np.linalg.norm(B.imag)
                    + np.linalg.norm(B_.imag))
            gram = (gamma(N) + gamma(K)) * np.linalg.norm(B) ** 2 / up
            assert abs(up - up_) <= weyl + 2 * gram


def test_sigma_max_matches_svdvals():
    # the Gram eigenvalue against a full SVD of the same nonzero block
    pw = PowerWeight(((0.0, 0.3),))
    sym_complex = laurent(-1, [1j, 0.0, 0.0, 0.4])
    assert np.max(np.abs(assemble_section(sym_complex, None, 64, 16).imag)) \
        > 0.5
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
        ref = svdvals(assemble_section(a, W, N, m))[0]
        assert abs(_sigma_max_dense(a, W, N, m) - ref) <= 1e-14 * ref
        if W is None:
            assert abs(_sigma_max_banded(a, N, m) - ref) <= 1e-14 * ref
    zero = laurent(-1, [0.0, 0.0])
    assert _sigma_max_dense(zero, None, 64, 8) == 0.0
    assert _sigma_max_banded(zero, 64, 8) == 0.0


def test_dense_upper_matches_whole_block_cast_bitwise():
    # the cast decided on the coefficient window gives the bytes of the cast
    # decided on the whole assembled block, on both branches and with
    # leading conjugated columns (m < n = 3 for e_{-3} h)
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
        B = assemble_section(a, W, N, m)
        real.append(np.max(np.abs(B.imag)) <= 1e-12 * np.max(np.abs(B)))
        ref = sigma_max_of_block(B)
        assert _sigma_max_dense(a, W, N, m) == ref
        if N == 1024:
            est_ = essential_bracket(a, W, BracketParams(N=N, m=m))
            assert est_.upper == max(ref, est_.lower)
    # every real case carries the rounding-level imaginary part of g
    assert real == [True] * 6 + [False] + [True] * 2 + [False] * 2 + [True]
    assert all(np.any(assemble_section(a, W, N, m).imag)
               for (a, W, N, m), r in zip(cases, real) if r)


def test_real_cast_covers_the_leading_columns():
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
                  CoeffVector(IndexWindow(0, N + 15), winv), 0.0)
    a = laurent(-2, [1.0])
    B = assemble_section(a, W, N, m)
    assert abs(B[0, 0] + 1j * eps) <= 1e-22
    assert not np.any(B[:, 1:].imag)
    up = _sigma_max_dense(a, W, N, m)
    assert up == sigma_max_of_block(B)
    assert abs(up - math.sqrt(1.0 + eps ** 2)) <= 1e-15 and up > 1.0


def test_weighted_bracket_peak_memory():
    """Traced peak of one real weighted bracket at N = 1024, m = 64, in units
    of one real block, N (N - m) 8 bytes: the block, its (N - m)^2 Gram
    matrix (0.94 units) and O(N L) packet columns, with no complex block or
    real copy beside them.  LAPACK's workspace, including eigvalsh's copy
    of G, is allocated outside Python and not traced."""
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
        B = assemble_section(a, None, N, m)
        G = B.conj().T @ B
        ab = _gram_band(a.coeffs, a.lo, N, m)
        K, scale = N - m, np.max(np.abs(G))
        for d in range(a.hi - a.lo + 1):
            dev = np.max(np.abs(ab[d, :K - d] - np.diagonal(G, -d)))
            assert dev <= 1e-15 * scale


@pytest.mark.parametrize("a, N, m", [
    (laurent(-2, [2.0, 0.0, 0.0, 1.0, 0.0, 0.3]), 1024, 64),   # real band
    (laurent(-1, [1j, 0.0, 0.0, 0.4]), 512, 32),              # complex band
    (laurent(-6, [0.3, 1.0, 0.5j, -0.2, 0.1, 0.7]), 256, 2),  # top cut
    (laurent(-3, np.linspace(1.0, 2.0, 8) * 1j ** np.arange(8)),
     256, 16),                                     # span 7 at the cutoff
    (laurent(-1, [0.0, 0.0]), 64, 8),                         # zero band
])
def test_numpy_lapack_band_driver_matches_scipy_bitwise(a, N, m):
    # the same sbevd/hbevd from NumPy's LAPACK and through SciPy
    if est._numpy_band_evd() is None:
        pytest.skip("NumPy's LAPACK does not export the band driver")
    assert a.hi - a.lo <= (N - m) // _BAND_RATIO
    c = a.coeffs.real if not np.any(a.coeffs.imag) else a.coeffs
    ab = _gram_band(c, a.lo, N, m)
    lam = _band_eigvalsh(ab)
    assert lam.tobytes() == eigvals_banded(ab, lower=True).tobytes()
    if not np.any(c):
        assert _sigma_max_banded(a, N, m) == 0.0 and not np.any(lam)


def test_bracket_without_band_driver_takes_the_dense_path(monkeypatch):
    # a NumPy whose LAPACK lacks the band driver gets the dense upper end,
    # bitwise, on blocks the banded path would take
    params = BracketParams(N=256, m=16, L=16, thetas=16)
    cases = [a for _, a in bracket_symbols()]
    cases += [laurent(-1, [1j, 0.0, 0.0, 0.4]), laurent(-1, [0.0, 0.0])]
    monkeypatch.setattr(est, "_numpy_band_evd", lambda: None)
    monkeypatch.setattr(est, "_sigma_max_banded", None)  # never called
    for a in cases:
        assert a.hi - a.lo <= (params.N - params.m) // _BAND_RATIO
        bracket = essential_bracket(a, None, params)
        dense = _sigma_max_dense(a, None, params.N, params.m)
        assert bracket.upper == max(dense, bracket.lower)


def test_band_driver_is_numpys_lapack():
    # NumPy's scipy-openblas wheels export the driver, so the dense path
    # must not stand in for it silently where they are installed
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"NumPy's LAPACK is {lapack.get('name')!r}")
    assert est._numpy_band_evd() is not None


def test_band_driver_failure_raises_linalg_error():
    # LAPACKE refuses a band holding a NaN with info = -6
    if est._numpy_band_evd() is None:
        pytest.skip("NumPy's LAPACK does not export the band driver")
    for dtype in (float, complex):
        with pytest.raises(np.linalg.LinAlgError, match="info = -6"):
            _band_eigvalsh(np.full((2, 8), np.nan, dtype=dtype))


def test_bracket_both_sides_of_band_cutoff(monkeypatch):
    taken = []

    def recorded(name):
        f = getattr(est, name)

        def call(*args):
            taken.append(name)
            return f(*args)
        return call

    for name in ("_sigma_max_banded", "_sigma_max_dense"):
        monkeypatch.setattr(est, name, recorded(name))
    params = BracketParams(N=256, m=16, L=16, thetas=16)
    cutoff = (params.N - params.m) // _BAND_RATIO
    rng = np.random.default_rng(3)
    for span, path in ((cutoff, "_sigma_max_banded"),
                       (cutoff + 1, "_sigma_max_dense")):
        a = random_laurent(rng, -3, span, True)
        ref = svdvals(assemble_section(a, None, params.N, params.m))[0]
        del taken[:]
        assert abs(essential_bracket(a, None, params).upper - ref) \
            <= 1e-14 * ref
        assert taken == [path]


def test_banded_upper_matches_dense_path():
    params = BracketParams()
    for _, a in bracket_symbols():
        dense = _sigma_max_dense(a, None, params.N, params.m)
        up = essential_bracket(a, None, params).upper
        assert abs(up - dense) <= 4e-15 * dense


# ----------------------------------------------- lower end: wave-packet bound

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
    # acceptance.weighted_brackets gives w == 1 the unweighted bracket; its
    # grid pair (grid 8N, window N + n + 15) yields the same numbers bitwise
    params = BracketParams(N=256)
    flat = sample_power_weight(PowerWeight(((0.0, 0.0),)), 8 * params.N)
    for _, a in bracket_symbols():
        W = outer_pair(flat, IndexWindow(0, params.N + max(0, -a.lo) + 15))
        assert essential_bracket(a, W, params) == \
            essential_bracket(a, None, params)


def test_norm_estimate_validation():
    with pytest.raises(ValueError):
        NormEstimate(2.0, 1.0)

