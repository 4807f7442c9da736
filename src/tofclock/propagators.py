"""Time evolution engines.

The coupling commutes with the clock angular momentum, so the joint state
splits into independent channels: channel n sees a rectangular barrier
(well) of height n*hbar*omega on the coupling region.  Every engine here
acts channel-by-channel on the (N, num_points) amplitude array.
"""

from __future__ import annotations

import contextlib
import math
import os
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from . import analysis, oracles
from .core import (
    ChannelState,
    ClockSpec,
    ExperimentConfig,
    RegionSpec,
    SpatialGrid,
    init_gaussian,
    product_state,
    row_sums,
    validate_regime,
    RegimeReport,
)


class PropagationError(RuntimeError):
    pass


class NormDriftError(PropagationError):
    """Total norm drifted beyond tolerance: grid or step misconfiguration."""


class BoundaryLeakError(PropagationError):
    """Significant amplitude reached the periodic grid edges (wraparound)."""


class CollisionUnfinishedError(PropagationError):
    """Region occupancy still above tolerance at t_final."""


def _kinetic_propagator(grid: SpatialGrid, dt: float, m: float, hbar: float) -> np.ndarray:
    return np.exp(-0.5j * hbar * grid.k**2 * dt / m)


def _coupling_phases(modes: np.ndarray, omega: float, duration: float) -> np.ndarray:
    return np.exp(-1j * modes * omega * duration)[:, None]


def _free_flight(amps: np.ndarray, propagator: np.ndarray) -> np.ndarray:
    """Exact free flight of every channel, in place where scipy allows it;
    use the returned array."""
    amps = sfft.fft(amps, axis=-1, overwrite_x=True)
    amps *= propagator
    return sfft.ifft(amps, axis=-1, overwrite_x=True)


def _couple(amps: np.ndarray, phases: np.ndarray, region: slice) -> None:
    amps[:, region] *= phases


def kinetic_step(
    state: ChannelState,
    dt: float,
    m: float = 1.0,
    hbar: float = 1.0,
) -> ChannelState:
    """Exact free flight for duration dt, channel by channel in Fourier space."""
    amps = state.amplitudes.copy()
    if dt != 0:
        amps = _free_flight(amps, _kinetic_propagator(state.grid, dt, m, hbar))
    return ChannelState(state.clock, state.grid, amps)


def coupling_phase_step(
    state: ChannelState, duration: float, region: RegionSpec
) -> ChannelState:
    """Coupling applied for `duration`: channel n picks up exp(-i n omega dur)
    on grid points inside the region; elsewhere nothing happens.  Per-channel
    norms are exactly preserved (pure phase)."""
    amps = state.amplitudes.copy()
    clock = state.clock
    _couple(amps, _coupling_phases(clock.modes, clock.omega, duration),
            state.grid.region_slice(region))
    return ChannelState(state.clock, state.grid, amps)


@dataclass(frozen=True)
class DiagnosticSample:
    t: float
    norm: float
    region_mass: float
    boundary_mass: float


@dataclass
class Trajectory:
    final_state: ChannelState
    diagnostics: list[DiagnosticSample] = field(default_factory=list)


def _initial_state(config: ExperimentConfig) -> ChannelState:
    psi = init_gaussian(config.packet, config.grid, config.physical.hbar)
    return product_state(psi, config.clock, config.grid)


# a state of fewer amplitudes runs serially: split over two threads on two
# vCPUs, a 17 x 512 state ran slower than on one, and so did the 25 x 4096
# rows fig1-kicked-T1 keeps after merging kick classes (69 against 60 ms)
_MIN_BLOCK_VALUES = 2**16
_NORM_TOL = 1e-8
_SNAPSHOTS = 20  # guard checks in a continuous run, besides the initial one


def resolve_workers(workers: int | None) -> int:
    """Number of channel blocks to propagate in parallel: `workers`, or
    every core this process may run on when it is None."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _sample(
    t: float, sums: np.ndarray, dx: float, counts: np.ndarray
) -> DiagnosticSample:
    """Diagnostics from per-row sums; row i stands for `counts[i]` channels."""
    total, inside, left, right = (sums * counts).sum(axis=1)
    return DiagnosticSample(
        t=t,
        norm=float(total) * dx,
        region_mass=float(inside) * dx,
        boundary_mass=float(left + right) * dx,
    )


def _check_guards(config: ExperimentConfig, sample: DiagnosticSample) -> DiagnosticSample:
    # written so that a NaN fails them
    t = sample.t
    if not abs(sample.norm - 1.0) <= _NORM_TOL:
        raise NormDriftError(f"norm drift {sample.norm - 1.0:.3e} at t={t:.6g}")
    if not sample.boundary_mass <= config.boundary_mass_tol:
        raise BoundaryLeakError(
            f"boundary occupancy {sample.boundary_mass:.3e} at t={t:.6g}"
        )
    return sample


def _run_schedule(
    config: ExperimentConfig,
    amps: np.ndarray,
    modes: np.ndarray,
    counts: np.ndarray,
    segments: list[tuple[float, float]],
    check_every: int,
    workers: int | None,
) -> list[DiagnosticSample]:
    """The one time loop of both engines; evolves `amps` in place.

    Row i of `amps` is a channel of mode `modes[i]`, and stands for
    `counts[i]` channels in the guard sums.  For each (flight, phase)
    segment: an exact free flight of duration `flight` (none when it is 0)
    followed by the coupling accrued over `phase` (none when it is 0).  The
    first segment, (0, phase), couples before any flight.  Guards run on
    the initial state, every `check_every` segments after the first and
    after the last one.

    The channels never mix, so the rows are split into up to `workers`
    contiguous blocks (views of one array); a small state stays in one
    block.  All blocks advance together from one guard check to the next,
    block 0 on the calling thread and the others on a pool.  Each returns
    its per-row sums, which are reduced in row order, so neither the
    diagnostics nor the amplitudes depend on the number of blocks.
    """
    grid, omega = config.grid, config.clock.omega
    region, n_edge, dx = grid.region_slice(config.region), grid.edge_points, grid.dx
    # at least two rows a block: einsum sums a lone row in buffer-sized
    # chunks, so its guard sums would depend on the split
    k = max(1, min(resolve_workers(workers), amps.shape[0] // 2,
                   amps.size // _MIN_BLOCK_VALUES))
    blocks = np.array_split(amps, k)
    flights = {
        flight: _kinetic_propagator(grid, flight, config.physical.m, config.physical.hbar)
        for flight in {flight for flight, _ in segments} if flight
    }
    phases = {
        phase: np.array_split(_coupling_phases(modes, omega, phase), k)
        for phase in {phase for _, phase in segments} if phase
    }
    # the steps between guard checks; the first check is on the initial state
    intervals, pending = [[]], []
    for i, segment in enumerate(segments):
        pending.append(segment)
        if i and (i % check_every == 0 or i == len(segments) - 1):
            intervals.append(pending)
            pending = []

    def advance(b: int, interval: list[tuple[float, float]]) -> np.ndarray:
        block = blocks[b]
        for flight, phase in interval:
            if flight:
                out = _free_flight(block, flights[flight])
                if not np.shares_memory(out, block):
                    block[...] = out
            if phase:
                _couple(block, phases[phase][b], region)
        return row_sums(block, slice(None), region, slice(None, n_edge), slice(-n_edge, None))

    t, diagnostics = 0.0, []
    # on an error or interrupt, leaving the pool waits only for the other
    # blocks' current interval
    with ThreadPoolExecutor(k - 1) if k > 1 else contextlib.nullcontext() as pool:
        for interval in intervals:
            futures = [pool.submit(advance, b, interval) for b in range(1, k)]
            sums = np.concatenate(
                [advance(0, interval)] + [future.result() for future in futures], axis=1
            )
            for flight, _ in interval:
                t += flight
            diagnostics.append(_check_guards(config, _sample(t, sums, dx, counts)))
    return diagnostics


def _kick_classes(
    clock: ClockSpec, period: float | None, amplitudes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows that a run kicked with `period` may propagate as one.

    Row i gets the kick phase exp(-i n_i omega T).  With q = omega T / 2 pi
    and p the smallest 1 <= p < 2j+1 for which q p is an integer (to a few
    ulp), rows i and i + p get the same phase mod 2 pi at every kick, and
    every channel is free between kicks.  So rows of one such class whose
    initial amplitudes are bitwise equal stay equal, up to the last bits in
    which exp of n omega T and of n omega T + 2 pi q p differ.

    Returns (owner, representatives): `owner[i]` is the position in
    `representatives` of the row that row i is merged into.  Every row is
    its own class when there is no period or no such p.
    """
    n = clock.n_modes
    p = n
    if period is not None:
        q = clock.omega * period / (2.0 * math.pi)
        p = next((p for p in range(1, n)
                  if abs(q * p - round(q * p)) <= 4 * math.ulp(q * p)), n)
    if p == n:  # a class of one row each, found without comparing rows
        return np.arange(n), np.arange(n)
    bits = np.ascontiguousarray(amplitudes).view(np.uint64)
    owner, reps = np.full(n, -1), []
    for i in range(n):
        if owner[i] < 0:
            members = owner[i::p]  # a view: row i's class from row i on
            members[(members < 0) & (bits[i::p] == bits[i]).all(axis=1)] = len(reps)
            reps.append(i)
    return owner, np.array(reps)


def _evolve(
    config: ExperimentConfig,
    initial_state: ChannelState | None,
    period: float | None,
    segments: list[tuple[float, float]],
    check_every: int,
    workers: int | None,
) -> Trajectory:
    """Runs `segments` on one row per `_kick_classes` class of `period`
    and copies each class's row back into all of its channels."""
    state = initial_state if initial_state is not None else _initial_state(config)
    owner, reps = _kick_classes(config.clock, period, state.amplitudes)
    amps = state.amplitudes[reps]
    diagnostics = _run_schedule(config, amps, config.clock.modes[reps], np.bincount(owner),
                                segments, check_every, workers)
    return Trajectory(ChannelState(state.clock, state.grid, amps[owner]), diagnostics)


def evolve_continuous(
    config: ExperimentConfig,
    initial_state: ChannelState | None = None,
    workers: int | None = None,
) -> Trajectory:
    """Strang-split evolution of the continuously coupled system.

    Per step of size dt: half coupling phase, exact kinetic step, half
    coupling phase; second order in dt.  Adjacent half phases between steps
    are merged into full phases, so this is a kicked schedule with T = dt
    and half kicks at both ends.  Every row is propagated as its own class.
    """
    n_steps = max(1, math.ceil(config.t_final / config.dt - 1e-12))
    dt = config.t_final / n_steps
    # mid-run guard samples carry the next step's leading half phase, which
    # does not affect any of the |.|^2 diagnostics
    segments = [(0.0, 0.5 * dt)] + [(dt, dt)] * (n_steps - 1) + [(dt, 0.5 * dt)]
    return _evolve(config, initial_state, None, segments,
                   max(1, n_steps // _SNAPSHOTS), workers)


def evolve_kicked(
    config: ExperimentConfig,
    initial_state: ChannelState | None = None,
    workers: int | None = None,
) -> Trajectory:
    """Kicked evolution: exact free flights of duration T separated by
    instantaneous coupling kicks at t = T, 2T, ... (or also at t = 0 with
    kick_at_zero), plus a final partial free flight up to t_final.

    No splitting error: the inter-kick Hamiltonian is purely kinetic.  Rows
    that `_kick_classes` merges are propagated once and copied at the end.
    """
    schedule = config.kick_schedule
    if schedule is None:
        raise ValueError("kicked evolution requires a kick schedule")
    T = schedule.period
    segments = [(0.0, T if config.kick_at_zero else 0.0)] + [(T, T)] * schedule.n_kicks
    remainder = config.t_final - schedule.n_kicks * T
    if remainder > 1e-12 * config.t_final:
        segments.append((remainder, 0.0))
    return _evolve(config, initial_state, T, segments, 1, workers)


@dataclass
class RunResult:
    """Outcome of a full experiment: final state plus diagnostics.

    For mode 'ideal-reference' there is no propagation; `ideal` carries the
    closed-form dwell-time distribution, `final_state` is None and
    `max_channel_drift` is 0.
    """

    config: ExperimentConfig
    regime: RegimeReport
    final_state: ChannelState | None
    diagnostics: list[DiagnosticSample]
    max_channel_drift: float  # largest change of one channel's norm
    wall_time: float
    ideal: analysis.DistributionSeries | None = None

    @property
    def norm_drift(self) -> float:
        if not self.diagnostics:
            return 0.0
        return max(abs(s.norm - 1.0) for s in self.diagnostics)

    @property
    def region_mass_final(self) -> float:
        return self.diagnostics[-1].region_mass if self.diagnostics else 0.0

    @property
    def boundary_mass_final(self) -> float:
        return self.diagnostics[-1].boundary_mass if self.diagnostics else 0.0


def run_experiment(
    config: ExperimentConfig,
    workers: int | None = None,
) -> RunResult:
    """Dispatch to the configured engine and collect diagnostics.

    `workers` is the number of channel blocks propagated in parallel
    (default: every available core); it does not change any result.
    Raises CollisionUnfinishedError if the region occupancy at t_final is
    above config.region_mass_tol (the collision is not over and clock
    readings would still be accruing).
    """
    workers = resolve_workers(workers)
    regime = validate_regime(config)
    t0 = _time.perf_counter()

    if config.mode == "ideal-reference":
        # the clock runs' grid: state_tof_distribution maps theta to theta/omega
        times = analysis.theta_grid(config.clock) / config.clock.omega
        dist = oracles.ideal_dwell(
            config.packet, config.region, config.physical.m, times,
            hbar=config.physical.hbar,
        )
        return RunResult(
            config=config, regime=regime, final_state=None, diagnostics=[],
            max_channel_drift=0.0, wall_time=_time.perf_counter() - t0, ideal=dist,
        )

    initial = _initial_state(config)
    init_norms = initial.channel_norms()
    if config.mode == "continuous":
        traj = evolve_continuous(config, initial, workers)
    else:
        traj = evolve_kicked(config, initial, workers)
    wall = _time.perf_counter() - t0

    drift = np.abs(traj.final_state.channel_norms() - init_norms).max()
    result = RunResult(
        config=config, regime=regime, final_state=traj.final_state,
        diagnostics=traj.diagnostics, max_channel_drift=float(drift), wall_time=wall,
    )
    if not result.region_mass_final <= config.region_mass_tol:  # NaN fails it
        raise CollisionUnfinishedError(
            f"region occupancy {result.region_mass_final:.3e} at t_final="
            f"{config.t_final:g} exceeds tolerance {config.region_mass_tol:.1e}"
        )
    return result
