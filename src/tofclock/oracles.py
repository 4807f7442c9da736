"""Independent analytic and brute-force references used for validation.

Nothing here shares code with the production propagators: closed forms,
direct numerical integration of the stationary equation, and a small
tensor-grid evolver of the full joint wavefunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NEG_MOMENTUM_MAX,
    ClockSpec,
    ExperimentConfig,
    RegionSpec,
    WavepacketSpec,
    classical_tof,
)
from .analysis import DistributionSeries


class EvanescentRegimeError(ValueError):
    """E <= |V_n|: the interior wave is evanescent, the linearized phase
    shift is meaningless."""


def free_gaussian(
    spec: WavepacketSpec,
    t: float,
    x: np.ndarray,
    m: float = 1.0,
    hbar: float = 1.0,
) -> np.ndarray:
    """Closed-form free evolution of the minimum-uncertainty packet.

    Center x0 + p0*t/m, position variance sigma^2 * (1 + (hbar*t/(2*m*sigma^2))^2),
    continuum normalization (integral |psi|^2 dx = 1).
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    sigma = spec.sigma
    beta = hbar * t / (2.0 * m * sigma**2)
    alpha = 1.0 + 1j * beta
    center = spec.x0 + spec.p0 * t / m
    xi = x - center
    prefactor = (2.0 * math.pi * sigma**2) ** -0.25 / np.sqrt(alpha)
    phase = spec.p0 * (x - 0.5 * spec.p0 * t / m) / hbar
    return prefactor * np.exp(-(xi**2) / (4.0 * sigma**2 * alpha) + 1j * phase)


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Stationary amplitudes for a rectangular barrier or well of width d."""

    energy: float
    barrier_height: float
    width: float
    k: float
    k_inside: complex
    transmission: complex
    reflection: complex

    @property
    def transmission_probability(self) -> float:
        return abs(self.transmission) ** 2

    @property
    def reflection_probability(self) -> float:
        return abs(self.reflection) ** 2

    @property
    def phase_shift(self) -> complex:
        """(k' - k) d; real above the barrier."""
        return (self.k_inside - self.k) * self.width


def _csinc(z: complex) -> complex:
    """sin(z)/z, entire (so the E = V limit is handled exactly)."""
    if abs(z) < 1e-8:
        return 1.0 - z * z / 6.0
    return np.sin(z) / z


def barrier_amplitudes(
    E: float, V: float, d: float, m: float = 1.0, hbar: float = 1.0
) -> ScatteringAmplitudes:
    """Matching-condition amplitudes for a rectangular barrier/well.

    Valid for E < V (evanescent interior), E = V (linear interior limit)
    and V < 0 (well); satisfies |t|^2 + |r|^2 = 1 for real V.
    """
    if E <= 0:
        raise ValueError(f"energy must be positive, got {E}")
    k = math.sqrt(2.0 * m * E) / hbar
    kp = np.sqrt(complex(2.0 * m * (E - V))) / hbar
    s = d * _csinc(kp * d)  # sin(k'd)/k', entire in k'
    denom = np.cos(kp * d) - 0.5j * (k**2 + kp**2) * s / k
    t = np.exp(-1j * k * d) / denom
    r = 0.5j * (kp**2 - k**2) * s / k / denom
    return ScatteringAmplitudes(
        energy=E, barrier_height=V, width=d, k=k, k_inside=kp,
        transmission=t, reflection=r,
    )


# relative and absolute tolerances of the ODE oracle's DOP853 integration
ODE_RTOL = ODE_ATOL = 1e-12


def barrier_amplitudes_numeric(
    E: float, V: float, d: float, m: float = 1.0, hbar: float = 1.0,
) -> ScatteringAmplitudes:
    """Brute-force check: integrate the stationary equation across the slab.

    Starts from a pure transmitted wave at x = d and integrates backwards to
    x = 0, then projects onto incident/reflected plane waves.
    """
    from scipy.integrate import solve_ivp  # kept off the run path's imports
    if E <= 0:
        raise ValueError(f"energy must be positive, got {E}")
    k = math.sqrt(2.0 * m * E) / hbar
    q2 = 2.0 * m * (V - E) / hbar**2  # u'' = q2 * u inside the slab

    def rhs(_x, y):
        u, up = y
        return [up, q2 * u]

    y0 = [np.exp(1j * k * d), 1j * k * np.exp(1j * k * d)]
    sol = solve_ivp(
        rhs, (d, 0.0), y0, rtol=ODE_RTOL, atol=ODE_ATOL, dense_output=False,
        method="DOP853",
    )
    u0, up0 = sol.y[0, -1], sol.y[1, -1]
    incident = 0.5 * (u0 + up0 / (1j * k))
    reflected = 0.5 * (u0 - up0 / (1j * k))
    t = 1.0 / incident
    r = reflected / incident
    kp = np.sqrt(complex(2.0 * m * (E - V))) / hbar
    return ScatteringAmplitudes(
        energy=E, barrier_height=V, width=d, k=k, k_inside=kp,
        transmission=t, reflection=r,
    )


def phase_shift_approx(
    n: int, clock: ClockSpec, E: float, d: float, m: float = 1.0,
    hbar: float = 1.0,
) -> tuple[float, float]:
    """Exact interior phase shift (k'-k)d and its linearization -n*omega*t_f.

    The linearized form treats the channel barrier as a small perturbation;
    it is accurate when E >> |n*hbar*omega|.
    """
    if E <= 0:
        raise ValueError(f"energy must be positive, got {E}")
    v_n = n * hbar * clock.omega
    if n != 0 and E <= abs(v_n):
        raise EvanescentRegimeError(
            f"E={E:g} <= |V_n|={abs(v_n):g}: interior wave evanescent"
        )
    k = math.sqrt(2.0 * m * E) / hbar
    kp = math.sqrt(2.0 * m * (E - v_n)) / hbar
    exact = (kp - k) * d
    t_f = classical_tof(d, math.sqrt(2.0 * m * E), m)
    approx = -n * clock.omega * t_f
    return exact, approx


def hand_density(clock: ClockSpec, theta: np.ndarray) -> np.ndarray:
    """Fejer-type angular density of the freshly initialized hand, in closed
    form: |sum_n exp(i n theta)|^2 / (2 pi N) over the N = 2j+1 modes."""
    n = clock.n_modes
    num = np.sin(0.5 * n * theta) ** 2
    den = np.sin(0.5 * theta) ** 2
    out = np.where(den > 1e-30, num / np.maximum(den, 1e-300), float(n * n))
    return out / (2.0 * math.pi * n)


def momentum_density(
    spec: WavepacketSpec, p: np.ndarray, hbar: float = 1.0
) -> np.ndarray:
    """Analytic Gaussian momentum density of the initial packet."""
    sp = spec.momentum_std(hbar)
    return np.exp(-((p - spec.p0) ** 2) / (2.0 * sp**2)) / (
        math.sqrt(2.0 * math.pi) * sp
    )


def ideal_dwell(
    spec: WavepacketSpec,
    region: RegionSpec,
    m: float,
    times: np.ndarray,
    hbar: float = 1.0,
) -> DistributionSeries:
    """Ideal dwell-time distribution: push-forward of the momentum density
    under p -> m*d/p.

    P_d(t) = (m*d/t^2) * P(m*d/t) for t > 0 (and 0 at t = 0); integrates to
    the positive-momentum weight of P, which must be ~1.
    """
    w = spec.negative_momentum_weight(hbar)
    if w > NEG_MOMENTUM_MAX:
        raise ValueError(
            f"negative-momentum weight {w:.3e} exceeds {NEG_MOMENTUM_MAX:.3e}; "
            "the dwell-time map p -> m*d/p needs positive momenta"
        )
    d = region.width
    times = np.asarray(times, dtype=float)
    density = np.zeros_like(times)
    pos = times > 0
    p_of_t = m * d / times[pos]
    density[pos] = (m * d / times[pos] ** 2) * momentum_density(spec, p_of_t, hbar)
    return DistributionSeries.from_density(times, density)


# largest (x, theta) grid, num_points * theta_points: fig1-kicked-T1 at 2^13
# points and 256 angles (2^21 values) took 6 s and 220 MB on 2 vCPUs
THETA_GRID_MAX_VALUES = 2**21


@dataclass
class ThetaGridResult:
    """Joint wavefunction on the (x, theta) tensor grid after evolution."""

    x: np.ndarray
    theta: np.ndarray
    psi: np.ndarray  # shape (num_points, theta_points)
    dx: float
    dtheta: float

    def theta_marginal(self) -> np.ndarray:
        return np.sum(np.abs(self.psi) ** 2, axis=0) * self.dx

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2)) * self.dx * self.dtheta


def evolve_theta_grid(
    config: ExperimentConfig, theta_points: int
) -> ThetaGridResult:
    """Propagate the full joint wavefunction on an (x, theta) grid.

    Brute-force cross-check of the channel-space engines: same splitting,
    but the clock lives on an explicit angular grid and the mode transform
    is done by FFT every step.  Guarded to THETA_GRID_MAX_VALUES grid values.
    """
    grid = config.grid
    clock = config.clock
    if grid.num_points * theta_points > THETA_GRID_MAX_VALUES:
        raise ValueError(
            f"theta-grid oracle limited to {THETA_GRID_MAX_VALUES} values, got "
            f"{grid.num_points} x {theta_points}"
        )
    if clock.n_modes > theta_points:
        raise ValueError("theta grid undersamples the clock modes")

    m, hbar = config.physical.m, config.physical.hbar
    dtheta = 2.0 * math.pi / theta_points
    theta = dtheta * np.arange(theta_points)
    hand = np.exp(1j * np.outer(theta, clock.modes)).sum(axis=1) / math.sqrt(
        2.0 * math.pi * clock.n_modes
    )
    psi_x = free_gaussian(config.packet, 0.0, grid.x, m, hbar)
    psi = np.outer(psi_x, hand)

    region = config.region  # closed interval, as the engines couple it
    chi = ((grid.x >= region.x_left) & (grid.x <= region.x_right)).astype(float)
    n_theta = np.rint(np.fft.fftfreq(theta_points) * theta_points)
    kin_phase_of = lambda dt: np.exp(-0.5j * hbar * grid.k**2 * dt / m)[:, None]

    def coupling(psi, duration):
        modes = np.fft.fft(psi, axis=1)
        modes *= np.exp(-1j * np.outer(chi, n_theta) * clock.omega * duration)
        return np.fft.ifft(modes, axis=1)

    def kinetic(psi, duration):
        spec = np.fft.fft(psi, axis=0)
        spec *= kin_phase_of(duration)
        return np.fft.ifft(spec, axis=0)

    if config.mode == "continuous":
        n_steps = max(1, math.ceil(config.t_final / config.dt - 1e-12))
        dt = config.t_final / n_steps
        for _ in range(n_steps):
            psi = coupling(psi, 0.5 * dt)
            psi = kinetic(psi, dt)
            psi = coupling(psi, 0.5 * dt)
    elif config.mode == "kicked":
        T = config.kick_period
        # kicks at t = k*T for k = 1..floor(t_final/T), counted here and not
        # taken from the engines' KickSchedule, so a miscount there shows
        n_kicks = int(config.t_final / T + 1e-12)
        for _ in range(n_kicks):
            psi = kinetic(psi, T)
            psi = coupling(psi, T)
        remainder = config.t_final - n_kicks * T
        if remainder > 1e-12 * config.t_final:
            psi = kinetic(psi, remainder)
    else:
        raise ValueError(f"no theta-grid evolution for mode {config.mode!r}")

    return ThetaGridResult(x=grid.x, theta=theta, psi=psi, dx=grid.dx,
                           dtheta=dtheta)
