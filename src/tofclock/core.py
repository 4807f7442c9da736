"""Physical parameter records, grids, clock kinematics and regime checks.

Atomic units throughout (hbar = 1 by default, but kept as a parameter so
dimensional sanity checks remain possible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral

import numpy as np

# "much greater than" in the regime conditions: E >= DOMINANCE_FACTOR * scale
DOMINANCE_FACTOR = 10.0
# largest negative-momentum weight of a packet: the dwell map t = m*d/p needs p > 0
NEG_MOMENTUM_MAX = 1e-6
# a packet starts more than this many spreads from either grid edge, in x and in p
_SUPPORT_MARGIN = 8.0
_EPS = float(np.finfo(float).eps)


def _require_finite(spec) -> None:
    """Reject a nan or infinite float field of a dataclass, by name."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class PhysicalConfig:
    """Particle mass and Planck constant, both in atomic units."""

    m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")


@dataclass(frozen=True)
class RegionSpec:
    """Interval on which the particle-clock coupling is active."""

    x_left: float
    x_right: float

    def __post_init__(self):
        _require_finite(self)
        if not self.x_right > self.x_left:
            raise ValueError(
                f"degenerate region: x_right={self.x_right} <= x_left={self.x_left}"
            )

    @property
    def width(self) -> float:
        return self.x_right - self.x_left


@dataclass(frozen=True)
class ClockSpec:
    """Rotor clock with angular frequency omega and mode half-width j.

    The hand is built from the 2j+1 angular-momentum modes n = -j..j; the
    resolution tau = 2*pi/(N*omega) is the rotation time that makes two
    successive hand states orthogonal.
    """

    omega: float
    j: int

    def __post_init__(self):
        _require_finite(self)
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not isinstance(self.j, Integral) or isinstance(self.j, bool) or self.j < 0:
            raise ValueError(f"j must be a nonnegative integer, got {self.j}")

    @property
    def n_modes(self) -> int:
        return 2 * self.j + 1

    @property
    def tau(self) -> float:
        return 2.0 * math.pi / (self.n_modes * self.omega)

    @property
    def period(self) -> float:
        """Maximum unambiguous time reading, 2*pi/omega."""
        return 2.0 * math.pi / self.omega

    @cached_property
    def modes(self) -> np.ndarray:
        return np.arange(-self.j, self.j + 1)


@dataclass(frozen=True)
class WavepacketSpec:
    """Minimum-uncertainty Gaussian packet.

    sigma is the position standard deviation, so the momentum spread is
    hbar/(2*sigma) and Delta_x * Delta_p = hbar/2.
    """

    sigma: float
    x0: float
    p0: float

    def __post_init__(self):
        _require_finite(self)
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def momentum_std(self, hbar: float = 1.0) -> float:
        return 0.5 * hbar / self.sigma

    def negative_momentum_weight(self, hbar: float = 1.0) -> float:
        """Mass of the momentum density below p = 0."""
        sp = self.momentum_std(hbar)
        return 0.5 * math.erfc(self.p0 / (math.sqrt(2.0) * sp))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid with the matching discrete Fourier wavenumbers.

    Wavenumbers follow FFT ordering: zero first, then positive, then
    negative, spanning [-pi/dx, pi/dx).  `edges` are the column slices the
    boundary guards sum over, `region_slice` those of the coupling region.
    """

    x_min: float
    x_max: float
    num_points: int

    def __post_init__(self):
        _require_finite(self)
        if not self.x_max > self.x_min:
            raise ValueError(
                f"degenerate interval: x_max={self.x_max} <= x_min={self.x_min}"
            )
        n = self.num_points
        if not isinstance(n, Integral) or n < 8 or n & (n - 1):
            raise ValueError(f"num_points must be a power of two >= 8, got {n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.num_points

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.num_points)

    @cached_property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.num_points, d=self.dx)

    @property
    def edges(self) -> tuple[slice, slice]:
        """The outermost 1 % of the grid at each edge (at least one point
        each), where amplitude that wraps around the periodic grid shows up."""
        n = max(1, round(0.01 * self.num_points))
        return slice(None, n), slice(-n, None)

    def region_mask(self, region: RegionSpec) -> np.ndarray:
        """Grid points belonging to the coupling region (closed interval)."""
        return (self.x >= region.x_left) & (self.x <= region.x_right)

    def region_slice(self, region: RegionSpec) -> slice:
        """The grid points of `region_mask` as one contiguous slice."""
        lo = int(np.searchsorted(self.x, region.x_left, side="left"))
        hi = int(np.searchsorted(self.x, region.x_right, side="right"))
        return slice(lo, hi)


def row_sums(amps: np.ndarray, *columns: slice) -> np.ndarray:
    """Per-row sums of |amps|^2 over each (step 1) column slice: a
    (len(columns), rows) array, built without temporaries."""
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    f = amps.view(np.float64)  # real and imaginary parts interleaved
    sums = []
    for cols in columns:
        lo, hi, _ = cols.indices(amps.shape[-1])
        part = f[:, 2 * lo:2 * hi]
        sums.append(np.einsum("ij,ij->i", part, part))
    return np.array(sums)


@dataclass
class ChannelState:
    """Joint particle-clock state sum_n psi_n(x) exp(i*n*theta)/sqrt(2*pi),
    channel n = i - j held as psi_n = sum_m weights[i, m] rows[m], or as
    rows[i] when weights is None.  `product_state` gives one row with equal
    weights, the tick path one row per reading m with weights z_n^m."""

    clock: ClockSpec
    grid: SpatialGrid
    rows: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        n, w = self.clock.n_modes, self.weights
        rows = n if w is None else len(self.rows)
        shapes = (self.rows.shape, None if w is None else w.shape)
        expected = ((rows, self.grid.num_points), None if w is None else (n, rows))
        if shapes != expected:
            raise ValueError(f"rows and weights shapes {shapes} != {expected}")

    @property
    def amplitudes(self) -> np.ndarray:
        """The channels: the rows, or their expansion, read-only as a write would be lost."""
        if self.weights is None:
            return self.rows
        amps = self.weights @ self.rows
        amps.flags.writeable = False
        return amps

    def overlaps(self, *columns: slice, diagonal: bool = False) -> np.ndarray:
        """Channel overlaps O_c[n, n'] = dx sum_{x in c} psi_n(x) psi_n'(x)*
        over each column slice c (all columns by default), stacked: over all,
        the reduced clock density matrix.  From the factors dx W G_c W^H, with
        G_c the rows' Gram; `diagonal` gives the masses O_c[n, n] alone."""
        columns = columns or (slice(None),)
        w, dx = self.weights, self.grid.dx
        if w is None and diagonal:
            return row_sums(self.rows, *columns) * dx
        grams = [r @ r.conj().T for r in (self.rows[:, c] for c in columns)]
        if w is None:
            return np.array(grams) * dx
        if diagonal:
            return np.array([((w @ g) * w.conj()).sum(axis=1).real for g in grams]) * dx
        return np.array([w @ g @ w.conj().T for g in grams]) * dx

    def channel_norms(self) -> np.ndarray:
        return self.overlaps(diagonal=True)[0]

    def norm(self) -> float:
        return float(self.channel_norms().sum())

    def region_mass(self, region: RegionSpec) -> float:
        return float(self.overlaps(self.grid.region_slice(region), diagonal=True).sum())

    def boundary_mass(self) -> float:
        """Mass in the two `SpatialGrid.edges` of the grid."""
        return float(self.overlaps(*self.grid.edges, diagonal=True).sum())


def _require_packet_fits(spec: WavepacketSpec, grid: SpatialGrid, hbar: float) -> None:
    """The packet lies more than `_SUPPORT_MARGIN` spreads inside the grid in x and p."""
    if spec.x0 - grid.x_min <= _SUPPORT_MARGIN * spec.sigma:
        raise ValueError(
            f"packet too close to left grid edge: x0={spec.x0}, "
            f"x_min={grid.x_min}, sigma={spec.sigma}"
        )
    if grid.x_max - spec.x0 <= _SUPPORT_MARGIN * spec.sigma:
        raise ValueError(
            f"packet too close to right grid edge: x0={spec.x0}, "
            f"x_max={grid.x_max}, sigma={spec.sigma}"
        )
    p_max = abs(spec.p0) + _SUPPORT_MARGIN * spec.momentum_std(hbar)
    nyquist = math.pi * hbar / grid.dx
    if p_max >= nyquist:
        raise ValueError(
            f"packet momentum |p0| + {_SUPPORT_MARGIN:g} sigma_p = {p_max:.6g} is not "
            f"below the grid's largest momentum pi*hbar/dx = {nyquist:.6g}"
        )


def init_gaussian(
    spec: WavepacketSpec, grid: SpatialGrid, hbar: float = 1.0
) -> np.ndarray:
    """Normalized Gaussian amplitude exp(-(x-x0)^2/(4 sigma^2) + i p0 x / hbar).

    Normalization is discrete: sum |psi|^2 dx = 1.  The packet must fit the
    grid, as `_require_packet_fits` checks.
    """
    _require_packet_fits(spec, grid, hbar)
    x = grid.x
    psi = np.exp(
        -((x - spec.x0) ** 2) / (4.0 * spec.sigma**2) + 1j * spec.p0 * x / hbar
    )
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return psi


def product_state(
    psi: np.ndarray, clock: ClockSpec, grid: SpatialGrid
) -> ChannelState:
    """Initial product state: spatial packet times the clock hand.

    The hand has uniform channel weights 1/sqrt(N) for n = -j..j, so its
    angular density is the Fejer-type kernel |sum_n exp(i n theta)|^2 / (2 pi N),
    peaked at theta = 0.
    """
    n = clock.n_modes
    weights = np.full((n, 1), 1.0 / math.sqrt(n), dtype=complex)
    return ChannelState(clock, grid, np.array(psi, dtype=complex, ndmin=2), weights)


def classical_tof(d: float, p: float, m: float) -> float:
    """Classical traversal time m*d/p of a region of length d."""
    if p <= 0:
        raise ValueError(f"momentum must be positive, got {p}")
    return m * d / p


MODES = ("continuous", "kicked", "ideal-reference")


@dataclass(frozen=True)
class KickSchedule:
    """Kick instants t_k = k*T for k = 1..floor(t_final/T)."""

    period: float
    t_final: float

    @property
    def n_kicks(self) -> int:
        return int(math.floor(self.t_final / self.period + 1e-12))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a single time-of-flight experiment.  Building one
    makes every check a run needs of it; the code after it trusts that."""

    physical: PhysicalConfig
    region: RegionSpec
    clock: ClockSpec
    packet: WavepacketSpec
    grid: SpatialGrid
    mode: str
    t_final: float
    dt: float | None = None
    kick_period: float | None = None
    region_mass_tol: float = 1e-4
    boundary_mass_tol: float = 1e-4

    def __post_init__(self):
        _require_finite(self)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if self.clock.j == 0:  # channel n couples as n*hbar*omega: n = 0 never does
            raise ValueError("a one-mode clock (j = 0) never couples: need j >= 1")
        if self.region.x_left < self.grid.x_min or self.region.x_right > self.grid.x_max:
            raise ValueError("coupling region must lie inside the spatial grid")
        cols = self.grid.region_slice(self.region)
        if cols.start == cols.stop:  # the clock would never couple
            raise ValueError(f"coupling region ({self.region.x_left}, {self.region.x_right}) "
                             f"holds no grid point: dx={self.grid.dx:.6g}")
        if self.mode == "kicked":
            if self.kick_period is None:
                raise ValueError("kicked mode requires kick_period")
            if not 0 < self.kick_period <= self.t_final:
                raise ValueError(f"need 0 < T <= t_final, got T={self.kick_period}, "
                                 f"t_final={self.t_final}")
        elif self.kick_period is not None:
            raise ValueError(f"kick_period is for mode 'kicked' only, not {self.mode!r}")
        for key in ("region_mass_tol", "boundary_mass_tol"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        _require_packet_fits(self.packet, self.grid, self.physical.hbar)
        x0, region = self.packet.x0, self.region
        if not (x0 < region.x_left or region.x_left < x0 < region.x_right):
            raise ValueError(f"packet must start left of the region or inside it: "
                             f"x0={x0}, region=({region.x_left}, {region.x_right})")
        w = self.packet.negative_momentum_weight(self.physical.hbar)
        if w > NEG_MOMENTUM_MAX:
            raise ValueError(
                f"negative-momentum weight {w:.3e} exceeds threshold "
                f"{NEG_MOMENTUM_MAX:.3e}"
            )
        if self.dt is None:
            object.__setattr__(self, "dt", min(self.clock.tau, self.classical_time) / 200.0)
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def placement(self) -> str:
        """Where the packet starts: "outside", left of the region, so the
        clock reads dwell times, or "inside" it, so it reads arrival times."""
        return "inside" if self.packet.x0 > self.region.x_left else "outside"

    @property
    def kick_at_zero(self) -> bool:
        """False: no run kicks at t = 0.  Read only by the benchmark's
        experiment fingerprints, which hash it."""
        return False

    @property
    def kick_schedule(self) -> KickSchedule | None:
        if self.mode == "kicked":
            return KickSchedule(self.kick_period, self.t_final)

    @property
    def classical_time(self) -> float:
        """Classical time to reach x_right from the later of x0 and x_left:
        the dwell time of an "outside" packet, the arrival time of an "inside" one."""
        length = self.region.x_right - max(self.packet.x0, self.region.x_left)
        return classical_tof(length, self.packet.p0, self.physical.m)


@dataclass(frozen=True)
class RegimeReport:
    """Pure report on the validity conditions of the clock configuration.

    Verdicts use `dominance_factor` wherever a strict inequality stands in
    for "much greater than"; the raw ratios are always included so callers
    can apply their own policy.  A field is None where it does not apply.
    """

    energy: float
    resolution_scale: float          # pi*hbar/tau
    dominance_factor: float
    continuous_ok: bool | None       # E >= dominance_factor * pi*hbar/tau
    classical_time: float
    clock_period: float
    max_time_ok: bool                # classical time below 2*pi/omega
    min_kick_period: float           # (2j+1)*tau/j; the window's top is classical_time
    kick_in_window: bool | None      # min_kick_period < T < classical_time
    max_modular_energy: float | None  # max over n of the kick residue scale
    kicked_ok: bool | None           # E >= dominance_factor * max_modular_energy


def validate_regime(config: ExperimentConfig) -> RegimeReport:
    """Evaluate the continuous and kicked validity conditions.

    Report-only: callers decide whether a violated condition warrants a
    warning or an abort (running a clock outside its regime is a valid
    experiment).  A kick multiplies mode n by exp(-i T omega n), so only the
    residue of hbar*omega*n modulo 2*pi*hbar/T perturbs the particle.
    """
    phys = config.physical
    clock = config.clock
    energy = config.packet.p0**2 / (2.0 * phys.m)
    resolution_scale = math.pi * phys.hbar / clock.tau
    continuous_ok = (energy >= DOMINANCE_FACTOR * resolution_scale
                     if config.mode == "continuous" else None)
    t_cl = config.classical_time
    period = clock.period
    min_kick = clock.n_modes * clock.tau / clock.j

    T = config.kick_period
    kick_in_window = None
    max_mod = None
    kicked_ok = None
    if T is not None:
        kick_in_window = min_kick < T < t_cl
        energies = phys.hbar * clock.omega * clock.modes
        modulus = 2.0 * math.pi * phys.hbar / T
        residues = energies % modulus
        # a mode a whole number of turns round has residue 0, but roundings in
        # omega, T, the energies and the modulus (2 eps relative each) can leave
        # it up to 4 eps (|energy| + modulus) above 0 or below the modulus
        slack = 4 * _EPS * (np.abs(energies) + modulus)
        residues[(residues <= slack) | (modulus - residues <= slack)] = 0
        max_mod = float(residues.max())
        kicked_ok = energy >= DOMINANCE_FACTOR * max_mod

    return RegimeReport(
        energy=energy,
        resolution_scale=resolution_scale,
        dominance_factor=DOMINANCE_FACTOR,
        continuous_ok=continuous_ok,
        classical_time=t_cl,
        clock_period=period,
        max_time_ok=t_cl < period,
        min_kick_period=min_kick,
        kick_in_window=kick_in_window,
        max_modular_energy=max_mod,
        kicked_ok=kicked_ok,
    )
