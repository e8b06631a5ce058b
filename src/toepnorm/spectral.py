"""Fourier coefficient windows and grid samples on the unit circle.

Functions on the circle are represented in two ways:

* ``CoeffVector``: a finite window of Fourier/Laurent coefficients, entry k
  holding the coefficient of z**(lo+k).  Windows with lo >= 0 represent
  analytic (Hardy-space) elements; a Toeplitz symbol, a finite Laurent
  polynomial, is passed as its CoeffVector.
* a grid function: the NumPy array of its M = len(samples) samples on the
  uniform *offset* grid theta_k = 2*pi*(k + 1/2) / M (``grid_thetas``), M a
  power of two >= 2.  The half-sample offset keeps sampled power weights
  away from their singular points when those sit on the unoffset lattice.

``analyze`` and ``synthesize`` move between the two.  The Riesz
projection P and its truncation P_n are not applied to single windows:
they act on finite sections, as row and column restrictions of structured
matrices (:mod:`toepnorm.operators`).  All operations are pure; none of
them mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class IndexWindow:
    """Closed integer frequency range [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty index window [{self.lo}, {self.hi}]")

    def __len__(self):
        return self.hi - self.lo + 1

    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


@dataclass(eq=False)
class CoeffVector:
    """Fourier coefficients on an index window.

    ``coeffs[k]`` is the coefficient of z**(window.lo + k).
    """

    window: IndexWindow
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 1 or len(self.coeffs) != len(self.window):
            raise ValueError("coefficient array does not match the window length")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    @property
    def lo(self) -> int:
        return self.window.lo

    @property
    def hi(self) -> int:
        return self.window.hi

    def on_window(self, window: IndexWindow) -> np.ndarray:
        """Coefficients restricted/padded to another window."""
        out = np.zeros(len(window), dtype=complex)
        lo = max(self.lo, window.lo)
        hi = min(self.hi, window.hi)
        if lo <= hi:
            out[lo - window.lo:hi - window.lo + 1] = \
                self.coeffs[lo - self.lo:hi - self.lo + 1]
        return out


def _grid_size(size: int) -> int:
    """``size``, refused unless a power of two >= 2: the library's grids."""
    if size < 2 or size & (size - 1):
        raise ValueError(f"grid size {size} is not a power of two >= 2")
    return size


def grid_thetas(size: int) -> np.ndarray:
    return 2.0 * np.pi * (np.arange(_grid_size(size)) + 0.5) / size


def analyze(f: np.ndarray, win: IndexWindow) -> CoeffVector:
    """Fourier coefficients on the requested window of the grid function
    whose samples, real or complex, are f, on the grid of size M = len(f).

    Midpoint (trapezoid on a periodic function) quadrature of the defining
    integral, which on the offset grid is a scaled DFT with a half-sample
    phase twist.  Exact for trigonometric polynomials of degree < M/2
    whose spectrum lies inside the window.  Non-finite samples give
    non-finite coefficients, which ``CoeffVector`` refuses.
    """
    M = _grid_size(len(f))
    if len(win) > M:
        raise ValueError(f"window length {len(win)} exceeds grid size {M}")
    F = np.fft.fft(f) / M
    ks = win.indices()
    coeffs = np.exp(-1j * np.pi * ks / M) * F[ks % M]
    return CoeffVector(win, coeffs)


def synthesize(c: CoeffVector, size: int) -> np.ndarray:
    """Complex samples of the Laurent polynomial with coefficients c on the
    offset grid of the given size."""
    if c.lo < -(_grid_size(size) // 2) or c.hi > size // 2 - 1:
        raise ValueError(
            f"window [{c.lo}, {c.hi}] exceeds the Nyquist range of grid size {size}")
    ks = c.window.indices()
    spec = np.zeros(size, dtype=complex)
    spec[ks % size] = c.coeffs * np.exp(1j * np.pi * ks / size)
    return np.fft.ifft(spec) * size

