"""Clock-reading distributions and their statistics.

All angular densities are trigonometric polynomials of degree < N, so a
uniform grid with at least 2N samples represents them exactly; means and
masses are computed spectrally where exactness matters.

Time grids are closed: they include both t = 0 and t = 2*pi/omega (whose
density value wraps to the one at 0), so the trapezoid rule over the grid
equals the exact integral over the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelState, ClockSpec, RegionSpec

NEGATIVE_DENSITY_TOL = 1e-12
THETA_POINTS = 1024  # fewest intervals of the default reading grid


def theta_grid(clock: ClockSpec, theta_points: int | None = None) -> np.ndarray:
    """Closed reading grid [0, 2*pi] of theta_points intervals, the one
    grid of every clock and ideal reading (times are theta/omega).

    The clock's angular density is a trigonometric polynomial of its
    N = 2j+1 modes, so theta_points >= 2N (Nyquist) samples it exactly;
    None takes max(THETA_POINTS, 2N), and a smaller explicit value raises.
    """
    n_modes = clock.n_modes
    if theta_points is None:
        theta_points = max(THETA_POINTS, 2 * n_modes)
    if theta_points < 2 * n_modes:
        raise ValueError(
            f"theta_points={theta_points} undersamples the {n_modes}-mode "
            f"density; need at least {2 * n_modes}"
        )
    return np.linspace(0.0, 2.0 * math.pi, theta_points + 1)


def theta_distribution(
    state: ChannelState, theta_points: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Angular density of the clock, sampled on `theta_grid`.

    P(theta) = sum_{nn'} exp(i(n-n')theta) O[n,n'] / (2*pi), O the state's
    `overlaps`; integrates to the state norm.  Its Fourier coefficients are
    the diagonal sums c_d = sum_{n-n'=d} O[n,n'], d = 0..2j (c_-d = conj(c_d)),
    so one inverse real FFT samples it; exact as theta_grid demands M >= 2N > 4j.
    """
    theta = theta_grid(state.clock, theta_points)
    m = theta.size - 1
    overlaps = state.overlaps()[0]
    coeffs = [np.trace(overlaps, -d) for d in range(state.clock.n_modes)]
    density = np.empty(theta.size)
    density[:-1] = np.fft.irfft(coeffs, m) * (m / (2.0 * math.pi))
    density[-1] = density[0]  # theta = 2*pi closes the grid
    return theta, density


@dataclass
class DistributionSeries:
    """Sampled time density with its cumulative distribution."""

    times: np.ndarray
    density: np.ndarray
    cdf: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.cdf[-1])

    @classmethod
    def from_density(
        cls, times: np.ndarray, density: np.ndarray
    ) -> "DistributionSeries":
        """Series of a density sampled at two or more times; its cdf is the
        trapezoid running integral from exactly 0, bit for bit scipy's
        cumulative_trapezoid."""
        times = np.asarray(times, dtype=float)
        density = np.asarray(density, dtype=float)
        if times.ndim != 1 or density.shape != times.shape or times.size < 2:
            raise ValueError(f"need 1-D times and density of one length >= 2, got "
                             f"shapes {times.shape} and {density.shape}")
        worst = density.min()
        if not worst >= -NEGATIVE_DENSITY_TOL:  # NaN fails it
            raise ValueError(f"density significantly negative or NaN: min={worst:.3e}")
        density = np.clip(density, 0.0, None)
        steps = np.diff(times) * (density[1:] + density[:-1]) / 2.0
        cdf = np.concatenate(([0.0], np.cumsum(steps)))
        return cls(times=times, density=density, cdf=cdf)


def state_tof_distribution(
    state: ChannelState, theta_points: int | None = None
) -> DistributionSeries:
    """The clock's reading distribution: `theta_distribution` rescaled to
    time-of-flight via t = theta/omega.

    Times are reported modulo the clock period 2*pi/omega; mass is
    preserved exactly (the change of variables is linear).
    """
    theta, density = theta_distribution(state, theta_points)
    omega = state.clock.omega
    return DistributionSeries.from_density(theta / omega, omega * density)


def mean_reading(series: DistributionSeries) -> float:
    """Mean clock reading: circular-centered linear mean, computed spectrally
    so it is exact for the trigonometric-polynomial densities produced by
    `theta_distribution`.  The window of length one period P is centered on
    the circular mean direction, taken in [-pi/4, 7*pi/4), which makes the
    estimate insensitive to hand-kernel wings wrapping through t = 0.  A
    mean in [-P/8, 7*P/8) therefore comes back unwrapped, and a larger one
    reads P less.
    """
    period = float(series.times[-1])
    # the closed grid duplicates t=0 at the end; drop it for the DFT
    samples = series.density[:-1]
    m = samples.size
    c = np.fft.fft(samples) / m
    mass = period * c[0].real
    if mass <= 0:
        raise ValueError("distribution carries no mass")
    mu = float(np.angle(c[-1]))  # direction of <exp(2*pi*i*t/period)>
    if mu < -0.25 * math.pi:  # from (-pi, pi] into [-pi/4, 7*pi/4)
        mu += 2.0 * math.pi
    # linear mean of the centered angle phi = 2*pi*t/period - mu over
    # (-pi, pi]; integral of phi*exp(i*d*phi) over that window is
    # -2*pi*i*(-1)^d/d, so the correction below is exact for band-limited
    # densities (degree < m/2)
    deltas = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    nz = deltas != 0
    d = deltas[nz]
    terms = c[nz] * np.exp(1j * d * mu) * (-1.0) ** d * (-1j) / d
    correction = period * terms.sum().real / mass
    mean_angle = mu + correction
    return mean_angle * period / (2.0 * math.pi)


def same_grid(a: DistributionSeries, b: DistributionSeries) -> bool:
    """True when both series sample one time grid (to 1e-12 absolute)."""
    return a.times.shape == b.times.shape and bool(
        np.allclose(a.times, b.times, rtol=0.0, atol=1e-12)
    )


def stack_distance(a: DistributionSeries, cdfs, densities) -> tuple[np.ndarray, np.ndarray]:
    """Sup |C_a - C_b| and L1 density distance of `a` to each partner b whose
    cdf and density are last-axis rows of `cdfs` and `densities` on a's grid."""
    return (np.abs(cdfs - a.cdf).max(axis=-1),
            np.trapezoid(np.abs(densities - a.density), a.times, axis=-1))


def distribution_distance(a: DistributionSeries, b: DistributionSeries) -> tuple[float, float]:
    """Kolmogorov-Smirnov-style sup |C_a - C_b| and L1 density distance."""
    if not same_grid(a, b):
        raise ValueError("distribution_distance requires identical time grids")
    sup_cdf, l1 = stack_distance(a, b.cdf, b.density)
    return float(sup_cdf), float(l1)


@dataclass
class TransmissionReport:
    """Per-channel and total masses left of, inside, and right of the region."""

    left: np.ndarray
    inside: np.ndarray
    right: np.ndarray

    @property
    def total_left(self) -> float:
        return float(self.left.sum())

    @property
    def total_inside(self) -> float:
        return float(self.inside.sum())

    @property
    def total_right(self) -> float:
        return float(self.right.sum())


def transmission_report(
    state: ChannelState, region: RegionSpec
) -> TransmissionReport:
    inner = state.grid.region_slice(region)
    return TransmissionReport(*state.overlaps(
        slice(None, inner.start), inner, slice(inner.stop, None), diagonal=True))
