"""Time evolution engines.

The coupling commutes with the clock angular momentum, so the joint state
splits into independent channels: channel n sees a rectangular barrier
(well) of height n*hbar*omega on the coupling region.  The channel loop
propagates one row per channel, the tick loop a product state's packet rows,
one per kick count.  A stack that would outgrow the channels stops at its
first flight of as many rows as channels, where the channel loop goes on.  Both
loops split their rows into blocks, fly them with `_fly` through
`_each_block` on one pool a run, and guard the grid's `edges`.
"""

from __future__ import annotations

import math
import os
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    ChannelState,
    ExperimentConfig,
    RegionSpec,
    SpatialGrid,
    init_gaussian,
    product_state,
    row_sums,
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


def _fly(rows: np.ndarray, propagator: np.ndarray) -> None:
    """Exact free flight of every row, in place."""
    np.fft.fft(rows, axis=-1, out=rows)
    rows *= propagator
    np.fft.ifft(rows, axis=-1, out=rows)


def _couple(amps: np.ndarray, phases: np.ndarray, region: slice) -> None:
    amps[:, region] *= phases


def kinetic_step(
    state: ChannelState,
    dt: float,
    m: float = 1.0,
    hbar: float = 1.0,
) -> ChannelState:
    """Exact free flight for duration dt, row by row in Fourier space.  A
    flight acts the same way on every channel, so a factored state keeps its
    weights."""
    rows = state.rows.copy()
    if dt != 0:
        _fly(rows, _kinetic_propagator(state.grid, dt, m, hbar))
    return ChannelState(state.clock, state.grid, rows, state.weights)


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
class RunResult:
    """Outcome of one propagation: the final state and its guard samples,
    from the check of the initial state on."""

    config: ExperimentConfig
    final_state: ChannelState
    diagnostics: list[DiagnosticSample]
    max_channel_drift: float  # largest change of one channel's norm
    wall_time: float

    @property
    def norm_drift(self) -> float:
        return max(abs(s.norm - 1.0) for s in self.diagnostics)

    @property
    def region_mass_final(self) -> float:
        return self.diagnostics[-1].region_mass

    @property
    def boundary_mass_final(self) -> float:
        return self.diagnostics[-1].boundary_mass


def _initial_state(config: ExperimentConfig) -> ChannelState:
    psi = init_gaussian(config.packet, config.grid, config.physical.hbar)
    return product_state(psi, config.clock, config.grid)


# a block holds at least this many amplitudes, so a smaller state runs
# serially.  On two vCPUs with workers=2 (medians, alternating runs): a
# continuous 17 x 2048 state ran in 59 ms split against 82 ms whole, and
# 17 x 4096 in 113 against 183 ms; the fig1-kicked-T0.5 tick stack at 2^12
# points, split from 16 live rows on, in 128-135 against 139-152 ms (T1 and
# T2 within noise either way); but 17 x 1024 gained nothing (34 ms either way)
_MIN_BLOCK_VALUES = 2**15
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


def _block_count(workers: int, rows: int, num_points: int) -> int:
    # at least two rows a block: einsum sums a lone row in buffer-sized
    # chunks, so its guard sums would depend on the split
    return max(1, min(workers, rows // 2, rows * num_points // _MIN_BLOCK_VALUES))


def _each_block(pool: ThreadPoolExecutor, fn, blocks: int) -> list:
    """[fn(0), ..., fn(blocks - 1)]: block 0 on the calling thread, the
    others on `pool`.  An error in a block is raised from here; leaving the
    pool then waits for the other blocks' current work."""
    futures = [pool.submit(fn, b) for b in range(1, blocks)]
    return [fn(0)] + [future.result() for future in futures]


def _flight_propagators(
    config: ExperimentConfig, segments: list[tuple[float, float]]
) -> dict[float, np.ndarray]:
    m, hbar = config.physical.m, config.physical.hbar
    return {flight: _kinetic_propagator(config.grid, flight, m, hbar)
            for flight in {flight for flight, _ in segments} if flight}


def _sample(t: float, sums: np.ndarray, dx: float) -> DiagnosticSample:
    """Diagnostics from per-channel row sums."""
    total, inside, left, right = sums.sum(axis=1)
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
    segments: list[tuple[float, float]],
    check_every: int,
    workers: int,
    pool: ThreadPoolExecutor,
    diagnostics: list[DiagnosticSample],
) -> None:
    """The channel path of both engines; evolves `amps` in place and appends
    its guard samples to `diagnostics`, the run's so far.

    Row i of `amps` is the channel of mode `clock.modes[i]`.  For each
    (flight, phase) segment: an exact free flight of duration `flight`
    (none when it is 0) followed by the coupling accrued over `phase` (none
    when it is 0).  A run's first segment, (0, phase), couples before any
    flight.  The run goes on from the time of the last sample; with none,
    from t = 0 with a check of the initial state.  Guards run after every
    `check_every`-th segment that has a flight, counted from 0, and after
    the last one.

    The channels never mix, so the rows are split into up to `workers`
    contiguous blocks (views of one array); a small state stays in one
    block.  All blocks advance together from one guard check to the next,
    through `_each_block`.  Each returns its per-row sums over the region
    and the grid's `edges`, which are reduced in row order, so neither the
    diagnostics nor the amplitudes depend on the number of blocks.
    """
    grid, clock = config.grid, config.clock
    region = grid.region_slice(config.region)
    k = _block_count(workers, amps.shape[0], grid.num_points)
    blocks = np.array_split(amps, k)
    flights = _flight_propagators(config, segments)
    phases = {
        phase: np.array_split(_coupling_phases(clock.modes, clock.omega, phase), k)
        for phase in {phase for _, phase in segments} if phase
    }
    # the steps between guard checks; an empty one checks the initial state
    t = diagnostics[-1].t if diagnostics else 0.0
    intervals, pending = [] if diagnostics else [[]], []
    for i, segment in enumerate(segments):
        pending.append(segment)
        if segment[0] and i % check_every == 0 or i == len(segments) - 1:
            intervals.append(pending)
            pending = []

    def advance(b: int, interval: list[tuple[float, float]]) -> np.ndarray:
        block = blocks[b]
        for flight, phase in interval:
            if flight:
                _fly(block, flights[flight])
            if phase:
                _couple(block, phases[phase][b], region)
        return row_sums(block, slice(None), region, *grid.edges)

    for interval in intervals:
        sums = np.concatenate(_each_block(pool, lambda b: advance(b, interval), k), axis=1)
        for flight, _ in interval:
            t += flight
        diagnostics.append(_check_guards(config, _sample(t, sums, grid.dx)))


def _run_ticks(
    config: ExperimentConfig,
    state: ChannelState,
    segments: list[tuple[float, float]],
    workers: int,
    pool: ThreadPoolExecutor,
) -> tuple[ChannelState, list[DiagnosticSample], int]:
    """The tick path of `evolve_kicked` from the product `state`: the state
    it reaches, its guard samples and how many of `segments` it ran.

    Channel n is sum_m z_n^m Phi_m, z_n = exp(-i n omega kick_period), with
    Phi_m the packet inside for exactly m kicks, when every channel starts as
    one packet.  The stack holds Phi_0 .. Phi_k after k kicks and ends as the
    state with weights `clock_phases[n, m]` = z_n^m; a run of 2j+1 kicks or
    more stops at its first flight of 2j+1 rows instead, from where one row
    per channel costs no more.

    Row 0 starts as the packet every channel starts as, the others as zeros.
    A flight propagates the live rows, split into blocks by the channel
    path's rule, through `_each_block`; a kick makes one more row live and
    moves the region part of row m to row m + 1 on the calling thread.
    Guards run after every segment, on the exact masses of the
    channel state over the region and the grid's `edges`: over columns S,
    dx sum_{m,m'} H[m - m'] G[m, m'] with G = Phi_S Phi_S^H and H_d =
    sum_n z_n^d.  The norm is the stack's, (2j+1) dx sum_m |Phi_m|^2, which
    equals the channels' in exact arithmetic: each flight block returns its
    rows' sums, added in row order as on the channel path, and a kick only
    moves values between rows.
    """
    grid, clock, n_modes = config.grid, config.clock, config.clock.n_modes
    region, dx = grid.region_slice(config.region), grid.dx
    kicks = sum(1 for _, phase in segments if phase)
    rows = min(1 + kicks, n_modes)
    stack = np.zeros((rows, grid.num_points), dtype=complex)
    stack[0] = state.weights[0, 0] * state.rows[0]
    clock_phases = np.exp(-1j * clock.omega * config.kick_period
                          * np.outer(clock.modes, np.arange(rows)))
    # H_d is real and even (the modes are -j..j), so only Re G counts, and
    # Re G = X X^T with X the real and imaginary parts of Phi_S side by side
    toeplitz = (clock_phases.conj().T @ clock_phases).real
    flights = _flight_propagators(config, segments)
    live = 1

    def mass(columns: np.ndarray) -> float:
        x = columns.view(np.float64)
        return float(np.vdot(toeplitz[:live, :live], x @ x.T)) * dx

    def fly(block: np.ndarray, propagator: np.ndarray) -> np.ndarray:
        _fly(block, propagator)
        return row_sums(block, slice(None))[0]

    def sample(t: float, row_norms: np.ndarray) -> DiagnosticSample:
        phi = stack[:live]
        edges = np.concatenate([phi[:, edge] for edge in grid.edges], axis=1)
        return _check_guards(config, DiagnosticSample(
            t=t, norm=float(n_modes * row_norms.sum()) * dx,
            region_mass=mass(phi[:, region]), boundary_mass=mass(edges),
        ))

    t, ran = 0.0, len(segments)
    diagnostics = [sample(0.0, row_sums(stack[:1], slice(None))[0])]
    for i, (flight, phase) in enumerate(segments):
        if live == n_modes <= kicks:  # the hand-over
            ran = i
            break
        blocks = np.array_split(stack[:live], _block_count(workers, live, grid.num_points))
        row_norms = np.concatenate(_each_block(
            pool, lambda b: fly(blocks[b], flights[flight]), len(blocks)))
        t += flight
        if phase:
            live += 1
            stack[1:live, region] = stack[:live - 1, region]
            stack[0, region] = 0
        diagnostics.append(sample(t, row_norms))
    return ChannelState(clock, grid, stack, clock_phases), diagnostics, ran


def _evolve(
    config: ExperimentConfig,
    initial_state: ChannelState | None,
    segments: list[tuple[float, float]],
    check_every: int,
    workers: int | None,
) -> RunResult:
    """Runs `segments` on the tick stack as far as `_run_ticks` goes, from a
    product state (one row, equal weights) of a kicked clock; the channel
    loop continues the run on one row per channel, expanded once, on the
    same pool.  The pool may have a thread for every worker but the calling
    one; threads start only as blocks are handed to it, so a state too small
    to split starts none."""
    workers = resolve_workers(workers)
    t0 = _time.perf_counter()
    state = initial_state if initial_state is not None else _initial_state(config)
    if (state.clock, state.grid) != (config.clock, config.grid):
        raise ValueError(f"initial state of {state.clock} on {state.grid}, but the config "
                         f"has {config.clock} on {config.grid}")
    init_norms = state.channel_norms()
    w = state.weights
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        diagnostics, ran = [], 0
        if (config.mode == "kicked" and w is not None
                and w.shape[1] == 1 and (w == w[0, 0]).all()):
            state, diagnostics, ran = _run_ticks(config, state, segments, workers, pool)
        if ran < len(segments):
            # the expansion of a factored state is a new array already
            amps = state.rows.copy() if state.weights is None else state.weights @ state.rows
            state = ChannelState(state.clock, state.grid, amps)
            _run_schedule(config, amps, segments[ran:], check_every, workers, pool,
                          diagnostics)
    drift = float(np.abs(state.channel_norms() - init_norms).max())
    return RunResult(config, state, diagnostics, drift, _time.perf_counter() - t0)


def evolve_continuous(
    config: ExperimentConfig,
    initial_state: ChannelState | None = None,
    workers: int | None = None,
) -> RunResult:
    """Strang-split evolution of the continuously coupled system.

    Per step of size dt: half coupling phase, exact kinetic step, half
    coupling phase; second order in dt.  Adjacent half phases between steps
    are merged into full phases, so this is a kicked schedule with T = dt
    and half kicks at both ends, run on one row per channel.
    """
    if config.mode != "continuous":
        raise ValueError(f"evolve_continuous needs mode 'continuous', not {config.mode!r}")
    n_steps = max(1, math.ceil(config.t_final / config.dt - 1e-12))
    dt = config.t_final / n_steps
    # mid-run guard samples carry the next step's leading half phase, which
    # does not affect any of the |.|^2 diagnostics
    segments = [(0.0, 0.5 * dt)] + [(dt, dt)] * (n_steps - 1) + [(dt, 0.5 * dt)]
    return _evolve(config, initial_state, segments, max(1, n_steps // _SNAPSHOTS), workers)


def evolve_kicked(
    config: ExperimentConfig,
    initial_state: ChannelState | None = None,
    workers: int | None = None,
) -> RunResult:
    """Kicked evolution: exact free flights of duration T, each followed
    by an instantaneous coupling kick, at t = T, 2T, ..., plus a final
    partial free flight up to t_final.

    No splitting error: the inter-kick Hamiltonian is purely kinetic.  A
    product state runs in the tick basis, and a final state reached there
    keeps the clock phases as weights; a stack that would outgrow the 2j+1
    channels runs on them from its first flight of 2j+1 rows.
    """
    if config.mode != "kicked":
        raise ValueError(f"evolve_kicked needs mode 'kicked', not {config.mode!r}")
    schedule = config.kick_schedule
    T = schedule.period
    segments = [(T, T)] * schedule.n_kicks
    remainder = config.t_final - schedule.n_kicks * T
    if remainder > 1e-12 * config.t_final:
        segments.append((remainder, 0.0))
    return _evolve(config, initial_state, segments, 1, workers)


def run_experiment(
    config: ExperimentConfig,
    workers: int | None = None,
) -> RunResult:
    """Propagate a continuous or kicked config with its engine.

    `workers` is the number of channel blocks propagated in parallel
    (default: every available core); it does not change any result.
    Raises ValueError for an ideal-reference config, whose closed form
    `oracles.ideal_dwell` gives, and CollisionUnfinishedError if the region
    occupancy at t_final is above config.region_mass_tol (the collision is
    not over and clock readings would still be accruing).
    """
    if config.mode == "continuous":
        result = evolve_continuous(config, workers=workers)
    elif config.mode == "kicked":
        result = evolve_kicked(config, workers=workers)
    else:
        raise ValueError("an ideal-reference config has nothing to propagate")
    if not result.region_mass_final <= config.region_mass_tol:  # NaN fails it
        raise CollisionUnfinishedError(
            f"region occupancy {result.region_mass_final:.3e} at t_final="
            f"{config.t_final:g} exceeds tolerance {config.region_mass_tol:.1e}"
        )
    return result
