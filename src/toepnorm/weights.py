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

* ``outer_pair``          - any weight sampled on a grid (a real array of
                            finite positive samples); one-grid cepstral
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (CoeffVector, IndexWindow, _grid_size, analyze,
                       grid_thetas, synthesize)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PowerWeight:
    """Finitely many circle points with real exponents; empty means w == 1."""

    points: tuple = ()

    def __post_init__(self):
        pts = tuple((float(a), float(lam)) for a, lam in self.points)
        for a, lam in pts:
            if not (math.isfinite(a) and math.isfinite(lam)):
                raise ValueError(f"weight point at angle {a!r} with exponent "
                                 f"{lam!r} is not finite")
        pts = tuple((a % _TWO_PI, lam) for a, lam in pts)
        angles = [a for a, _ in pts]
        if len(set(angles)) != len(angles):
            raise ValueError("weight points must have pairwise distinct angles")
        object.__setattr__(self, "points", pts)

    def label(self) -> str:
        if not self.points:
            return "1"
        return "*".join(f"|t-e^(i{a:.6g})|^{lam:.6g}" for a, lam in self.points)


class OuterPairError(ValueError):
    """An outer pair refused because its leading coefficient is not real
    positive: the construction failed for this weight."""


@dataclass(eq=False)
class OuterPair:
    """Boundary coefficients of the outer function W and of 1/W, each on a
    window starting at frequency 0; the leading one of W is real positive."""

    w_coeffs: CoeffVector
    winv_coeffs: CoeffVector

    def __post_init__(self):
        for c in (self.w_coeffs, self.winv_coeffs):
            if c.lo != 0:
                raise ValueError("outer coefficient windows must start at 0")
        c0 = self.w_coeffs.coeffs[0]
        if not (c0.real > 0 and abs(c0.imag) <= 1e-12 * max(1.0, c0.real)):
            raise OuterPairError("leading outer coefficient must be real "
                                 "positive")


def sample_power_weight(w: PowerWeight, size: int) -> np.ndarray:
    """The weight's real samples on the offset grid of the given size;
    |t - e^{ia}| = 2|sin((theta-a)/2)|.

    A point with a nonzero exponent whose angle is a grid sample is refused:
    the weight is 0 or infinite there.  sin((theta - a)/2) vanishes only at
    theta == a, since |theta - a| < 2pi, so the test is exact.  A weight
    whose product takes some sample to 0, inf or 0 * inf is refused too."""
    th = grid_thetas(size)
    vals = np.ones(size)
    for a, lam in w.points:
        if lam != 0 and np.any(th == a):
            raise ValueError(f"weight point at angle {a!r} with exponent "
                             f"{lam!r} lies on a sample of the {size}-point "
                             "grid")
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            vals = vals * np.abs(2.0 * np.sin((th - a) / 2.0)) ** lam
    if not np.all((0 < vals) & (vals < np.inf)):
        raise ValueError(f"weight {w.label()} leaves the floating-point "
                         f"range on the {size}-point grid")
    return vals


def khvedelidze_ap_check(w: PowerWeight, p: float) -> bool:
    """Closed-form A_p membership: every exponent strictly inside (-1/p, 1-1/p)."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    return all(-1.0 / p < lam < 1.0 - 1.0 / p for _, lam in w.points)


def _positive_real_samples(w: np.ndarray) -> np.ndarray:
    """w, refused unless the samples of a weight on a library grid: a real
    1-D array of finite values > 0 whose length is a grid size."""
    if not (np.isrealobj(w) and np.ndim(w) == 1
            and np.all((0 < w) & (w < np.inf))):
        raise ValueError("weight samples must be a 1-D array of finite "
                         "positive reals")
    _grid_size(len(w))
    return w


def ap_characteristic(w: np.ndarray, p: float) -> float:
    """Arc-supremum A_p product scanned over every grid-aligned arc.

    Returns the maximum over contiguous sample runs (wrap-around included) of

        (avg of w^p)^(1/p) * (avg of w^(-p'))^(1/p'),

    with midpoint-rule averages.  The value is a lower bound for the true
    arc supremum; for weights outside A_p it grows without bound under grid
    refinement.  Raises ``ValueError`` when p or p' is so large that a power
    sum overflows.
    """
    vals = _positive_real_samples(w)
    if not p > 1:
        raise ValueError("p must exceed 1")
    M = len(vals)
    q = p / (p - 1.0)
    with np.errstate(over="ignore"):
        wp = vals ** p
        wq = vals ** (-q)
        cp = np.concatenate([[0.0], np.cumsum(np.concatenate([wp, wp]))])
        cq = np.concatenate([[0.0], np.cumsum(np.concatenate([wq, wq]))])
    if not (np.isfinite(cp[-1]) and np.isfinite(cq[-1])):
        # an overflowed sum would turn the arc averages to NaN, and the
        # scan would return 0 where Hoelder's inequality gives >= 1
        raise ValueError(f"p = {p!r} takes w**p or w**(-p') outside the "
                         "floating-point range")
    starts = np.arange(M)
    best = 0.0
    for L in range(1, M + 1):
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


def _log_spectrum(w: np.ndarray, M: int) -> np.ndarray:
    """Coefficients 0..M/2-1 of log w from its grid samples."""
    return analyze(np.log(_positive_real_samples(w)),
                   IndexWindow(0, M // 2 - 1)).coeffs


def _pair_from_log_grid(uh: np.ndarray, size: int,
                        win: IndexWindow) -> OuterPair:
    """Complete the log spectrum uh (k >= 0) of w to that of W by the
    one-sided (Schwarz kernel) rule, keeping k = 0 and doubling k >= 1;
    exponentiate it, and its negation for 1/W, on a grid and analyze back
    into ``win``, which must start at 0 and end within uh's window, below
    the Nyquist frequency of the grid uh came from.

    One synthesis serves both: it is linear and rounds symmetrically in
    sign, so the samples of the negated spectrum are the negated samples,
    bit for bit.
    """
    if win.lo != 0:
        raise ValueError("outer coefficient window must start at 0")
    if win.hi > len(uh) - 1:
        raise ValueError("window exceeds the Nyquist range of the weight grid")
    vhat = uh.copy()
    vhat[1:] *= 2.0
    v = synthesize(CoeffVector(IndexWindow(0, len(vhat) - 1), vhat), size)
    return OuterPair(*(analyze(np.exp(samples), win) for samples in (v, -v)))


def outer_pair(w: np.ndarray, win: IndexWindow) -> OuterPair:
    """Outer pair from a weight's real samples w on the offset grid of size
    M = len(w) by the cepstral completion.

    Takes u = log w on the grid, keeps u-hat(0), doubles u-hat(1..M/2-1),
    zeroes negative frequencies, exponentiates pointwise and analyzes back
    into the requested window (which must start at 0 and stay below the
    Nyquist frequency).
    """
    return _pair_from_log_grid(_log_spectrum(w, len(w)), len(w), win)


def outer_pair_refined(w: PowerWeight, grid_size: int, win: IndexWindow) -> OuterPair:
    """Outer pair via the cepstral completion on two nested grids.

    The log spectrum of a power weight decays exactly like 1/|k|, so the
    grid-M estimate of each coefficient is off by c/M + O(k^2/M^3).
    Extrapolating 2*u_hat(2M) - u_hat(M) removes the leading alias; the
    exponentiation then runs on the finer grid.
    """
    M = grid_size
    if M < 4 or M & (M - 1):
        raise ValueError("grid size must be a power of two >= 4")
    uh = (2.0 * _log_spectrum(sample_power_weight(w, 2 * M), M)
          - _log_spectrum(sample_power_weight(w, M), M))
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
    v = _power_log_spectrum(w, win.hi + 1)
    return OuterPair(CoeffVector(win, _exp_series(v)),
                     CoeffVector(win, _exp_series(-v)))
