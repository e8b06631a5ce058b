"""Muckenhoupt weight classification and outer (spectral) factorization.

A power weight is a finite product prod_j |t - t_j|**lambda_j over points
t_j = exp(i*alpha_j) on the circle.  Such a weight lies in the Muckenhoupt
class A_p exactly when every exponent satisfies -1/p < lambda_j < 1 - 1/p;
``khvedelidze_ap_check`` implements that closed form and
``ap_characteristic`` measures the defining arc supremum numerically.

``outer_pair`` builds the boundary Fourier coefficients of the outer
function W with |W| = w together with those of 1/W.  Multiplication by W is
an isometry between the weighted and unweighted Hardy spaces, which is what
the finite-section machinery in :mod:`toepnorm.operators` conjugates with.
Three constructions are provided, trading generality for accuracy:

* ``outer_pair``          - any positive grid function; one-grid cepstral
                            completion (log, one-sided doubling, exp).  For
                            weights with cusps the result carries an O(1/M)
                            aliasing bias; for smooth log w it is spectrally
                            accurate.
* ``outer_pair_refined``  - power weights; the same completion run on two
                            nested grids (M and 2M) with Richardson
                            extrapolation of the log spectrum, which cancels
                            the leading 1/M alias of the 1/|k| log spectrum.
* ``outer_pair_exact``    - power weights; closed-form log spectrum
                            log W(z) = -sum_j lambda_j sum_k (e^{-i k a_j}/k) z^k
                            exponentiated by the Cauchy-product recurrence.
                            Exact to rounding.

``evaluate_outer`` evaluates the outer function of a power weight inside
the disk from the same closed form, W(z) = prod_j (1 - e^{-i a_j} z)^{lambda_j}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (CoeffVector, GridFunction, IndexWindow, analyze,
                       grid_thetas, synthesize)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PowerWeight:
    """Finitely many circle points with real exponents; empty means w == 1."""

    points: tuple = ()

    def __post_init__(self):
        pts = tuple((float(a) % _TWO_PI, float(lam)) for a, lam in self.points)
        angles = [a for a, _ in pts]
        if len(set(angles)) != len(angles):
            raise ValueError("weight points must have pairwise distinct angles")
        object.__setattr__(self, "points", pts)

    def label(self) -> str:
        if not self.points:
            return "1"
        return "*".join(f"|t-e^(i{a:.6g})|^{lam:.6g}" for a, lam in self.points)


@dataclass(eq=False)
class OuterPair:
    """Boundary coefficients of the outer function W and of 1/W.

    ``residual`` reports the observed construction defect: the largest
    negative-frequency coefficient left over before truncation together with
    the reciprocal defect max |(W * 1/W)(k) - delta_0(k)| on the common
    window.
    """

    w_coeffs: CoeffVector
    winv_coeffs: CoeffVector
    residual: float

    def __post_init__(self):
        for c in (self.w_coeffs, self.winv_coeffs):
            if c.lo != 0:
                raise ValueError("outer coefficient windows must start at 0")
        c0 = self.w_coeffs.coeffs[0]
        if not (c0.real > 0 and abs(c0.imag) <= 1e-12 * max(1.0, c0.real)):
            raise ValueError("leading outer coefficient must be real positive")


def sample_power_weight(w: PowerWeight, size: int) -> GridFunction:
    """Evaluate the weight on the offset grid; |t - e^{ia}| = 2|sin((theta-a)/2)|."""
    th = grid_thetas(size)
    vals = np.ones(size)
    for a, lam in w.points:
        vals = vals * np.abs(2.0 * np.sin((th - a) / 2.0)) ** lam
    return GridFunction(size, vals.astype(complex))


def khvedelidze_ap_check(w: PowerWeight, p: float) -> bool:
    """Closed-form A_p membership: every exponent strictly inside (-1/p, 1-1/p)."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    return all(-1.0 / p < lam < 1.0 - 1.0 / p for _, lam in w.points)


def _positive_real_samples(w: GridFunction) -> np.ndarray:
    vals = w.samples
    if np.any(vals.imag != 0) or np.any(vals.real <= 0):
        raise ValueError("weight samples must be strictly positive reals")
    return vals.real


def ap_characteristic(w: GridFunction, p: float, maxM: int = 512) -> float:
    """Arc-supremum A_p product scanned over grid-aligned arcs.

    Returns the maximum over contiguous sample runs (wrap-around included) of

        (avg of w^p)^(1/p) * (avg of w^(-p'))^(1/p'),

    with midpoint-rule averages.  When the grid is finer than ``maxM``
    subdivisions, arc endpoints are restricted to a coarser lattice so at
    most maxM**2 arcs are scanned; the averages still use every sample.
    The value is a lower bound for the true arc supremum; for weights
    outside A_p it grows without bound under grid refinement.
    """
    vals = _positive_real_samples(w)
    if not p > 1:
        raise ValueError("p must exceed 1")
    if maxM < 2:
        raise ValueError("maxM must be at least 2")
    M = w.size
    q = p / (p - 1.0)
    stride = max(1, -(-M // maxM))
    wp = vals ** p
    wq = vals ** (-q)
    cp = np.concatenate([[0.0], np.cumsum(np.concatenate([wp, wp]))])
    cq = np.concatenate([[0.0], np.cumsum(np.concatenate([wq, wq]))])
    starts = np.arange(0, M, stride)
    best = 0.0
    for L in range(stride, M + 1, stride):
        avg_p = (cp[starts + L] - cp[starts]) / L
        avg_q = (cq[starts + L] - cq[starts]) / L
        val = np.max(avg_p ** (1.0 / p) * avg_q ** (1.0 / q))
        if val > best:
            best = float(val)
    return best


def _exp_series(v: np.ndarray) -> np.ndarray:
    """Taylor coefficients of exp(sum v_k z^k) via W' = (sum k v_k z^{k-1}) W."""
    K = len(v)
    out = np.zeros(K, dtype=complex)
    out[0] = np.exp(v[0])
    jv = np.arange(K) * v
    for k in range(1, K):
        out[k] = np.dot(jv[1:k + 1], out[k - 1::-1]) / k
    return out


def _reciprocal_defect(wc: np.ndarray, wic: np.ndarray) -> float:
    K = min(len(wc), len(wic))
    conv = np.convolve(wc[:K], wic[:K])[:K]
    conv[0] -= 1.0
    return float(np.max(np.abs(conv)))


def _pair_from_log_grid(uh: np.ndarray, size: int,
                        win: IndexWindow) -> OuterPair:
    """Complete the log spectrum uh (k >= 0) of w to that of W by the
    one-sided (Schwarz kernel) rule, keeping k = 0 and doubling k >= 1;
    exponentiate it, and its negation for 1/W, on a grid and analyze back.

    One synthesis serves both: it is linear and rounds symmetrically in
    sign, so the samples of the negated spectrum are the negated samples,
    bit for bit.  One analysis over [-(size // 2), win.hi] gives both the
    negative frequencies, whose largest modulus is the defect, and
    ``win``, which starts at 0.
    """
    vhat = uh.copy()
    vhat[1:] *= 2.0
    v = synthesize(CoeffVector(IndexWindow(0, len(vhat) - 1), vhat),
                   size).samples
    defect = 0.0
    coeffs = []
    for samples in (v, -v):
        wg = GridFunction(size, np.exp(samples))
        full = analyze(wg, IndexWindow(-(size // 2), win.hi)).coeffs
        defect = max(defect, float(np.max(np.abs(full[:size // 2]))))
        coeffs.append(CoeffVector(win, full[size // 2:]))
    wc, wic = coeffs
    residual = max(defect, _reciprocal_defect(wc.coeffs, wic.coeffs))
    return OuterPair(wc, wic, residual)


def outer_pair(w: GridFunction, win: IndexWindow) -> OuterPair:
    """Outer pair from grid samples by the cepstral completion.

    Takes u = log w on the grid, keeps u-hat(0), doubles u-hat(1..M/2-1),
    zeroes negative frequencies, exponentiates pointwise and analyzes back
    into the requested window (which must start at 0 and stay below the
    Nyquist frequency).
    """
    vals = _positive_real_samples(w)
    if win.lo != 0:
        raise ValueError("outer coefficient window must start at 0")
    M = w.size
    if win.hi > M // 2 - 1:
        raise ValueError("window exceeds the Nyquist range of the weight grid")
    u = GridFunction(M, np.log(vals).astype(complex))
    uh = analyze(u, IndexWindow(0, M // 2 - 1)).coeffs
    return _pair_from_log_grid(uh, M, win)


def outer_pair_refined(w: PowerWeight, grid_size: int, win: IndexWindow) -> OuterPair:
    """Outer pair via the cepstral completion on two nested grids.

    The log spectrum of a power weight decays exactly like 1/|k|, so the
    grid-M estimate of each coefficient is off by c/M + O(k^2/M^3).
    Extrapolating 2*u_hat(2M) - u_hat(M) removes the leading alias; the
    exponentiation then runs on the finer grid.
    """
    if win.lo != 0:
        raise ValueError("outer coefficient window must start at 0")
    M = grid_size
    if M < 4 or M & (M - 1):
        raise ValueError("grid size must be a power of two >= 4")
    if win.hi > M // 2 - 1:
        raise ValueError("window exceeds the Nyquist range of the weight grid")
    spec = IndexWindow(0, M // 2 - 1)
    u_m = np.log(_positive_real_samples(sample_power_weight(w, M)))
    u_2m = np.log(_positive_real_samples(sample_power_weight(w, 2 * M)))
    uh_m = analyze(GridFunction(M, u_m.astype(complex)), spec).coeffs
    uh_2m = analyze(GridFunction(2 * M, u_2m.astype(complex)), spec).coeffs
    uh = 2.0 * uh_2m - uh_m
    return _pair_from_log_grid(uh, 2 * M, win)


def _power_log_spectrum(w: PowerWeight, K: int) -> np.ndarray:
    """Closed-form Taylor coefficients of log W for a power weight."""
    v = np.zeros(K, dtype=complex)
    ks = np.arange(1, K)
    for a, lam in w.points:
        v[1:] += -lam * np.exp(-1j * ks * a) / ks
    return v


def outer_pair_exact(w: PowerWeight, win: IndexWindow) -> OuterPair:
    """Outer pair of a power weight from its closed-form log spectrum.

    W(z) = prod_j (1 - e^{-i a_j} z)^{lambda_j}; the Taylor coefficients of
    W and 1/W follow from the exponentiation recurrence with no grid and no
    quadrature, so the only error is floating-point rounding.
    """
    if win.lo != 0:
        raise ValueError("outer coefficient window must start at 0")
    K = win.hi + 1
    v = _power_log_spectrum(w, K)
    wc = _exp_series(v)
    wic = _exp_series(-v)
    residual = max(_reciprocal_defect(wc, wic), 4.0 * K * np.finfo(float).eps)
    return OuterPair(CoeffVector(win, wc), CoeffVector(win, wic), residual)


def evaluate_outer(w: PowerWeight, z: complex) -> complex:
    """Evaluate the outer function of a power weight at a point of the open
    disk by its closed form W(z) = prod_j (1 - e^{-i a_j} z)^{lambda_j}."""
    z = complex(z)
    if abs(z) > 0.99:
        raise ValueError("evaluation point must satisfy |z| <= 0.99")
    acc = 0.0 + 0.0j
    for a, lam in w.points:
        acc += lam * np.log(1.0 - np.exp(-1j * a) * z)
    return complex(np.exp(acc))
