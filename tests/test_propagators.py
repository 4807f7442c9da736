import dataclasses
import math
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tofclock as tc
from tofclock import analysis, oracles, propagators
from tofclock.presets import get_preset
from tofclock.propagators import (
    BoundaryLeakError,
    CollisionUnfinishedError,
    NormDriftError,
    coupling_phase_step,
    evolve_continuous,
    evolve_kicked,
    kinetic_step,
    run_experiment,
)


def _config(**overrides):
    kwargs = dict(
        physical=tc.PhysicalConfig(),
        region=tc.RegionSpec(-8.0, 8.0),
        clock=tc.ClockSpec(0.8, 8),
        packet=tc.WavepacketSpec(1.0, -15.0, 5.0),
        grid=tc.SpatialGrid(-40.0, 40.0, 2**9),
        mode="continuous",
        t_final=5.0,
        dt=0.02,
        region_mass_tol=1.0,
        boundary_mass_tol=1.0,
    )
    kwargs.update(overrides)
    return tc.ExperimentConfig(**kwargs)


def _free_state(clock=None, grid=None, spec=None):
    clock = clock or tc.ClockSpec(0.8, 8)
    grid = grid or tc.SpatialGrid(-40.0, 40.0, 2**9)
    spec = spec or tc.WavepacketSpec(1.0, -15.0, 5.0)
    psi = tc.init_gaussian(spec, grid)
    return tc.product_state(psi, clock, grid), spec, grid


def _commensurate_period(omega, a, b):
    """Kick period with omega T / 2 pi = a / b."""
    return 2.0 * math.pi * a / (b * omega)


def _row_flights(cfg):
    """Rows the kicked run of `cfg` propagates, summed over its flights;
    the flights themselves are skipped."""
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagators, "_fly", lambda block, propagator: rows.append(len(block)))
        evolve_kicked(cfg, workers=1)
    return sum(rows)


def _path(cfg, state=None):
    """The loops evolve_kicked runs for `cfg` and `state`, in order, each as
    ("ticks", stack rows, segments) or ("channels", rows, segments), found
    with the flights skipped, the guards passed and no channel loop run."""
    legs, run_ticks = [], propagators._run_ticks

    def ticks(*args):
        final, diagnostics, ran = run_ticks(*args)
        legs.append(("ticks", final.rows.shape[0], ran))
        return final, diagnostics, ran

    def channels(config, amps, segments, *args):
        legs.append(("channels", amps.shape[0], len(segments)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagators, "_run_ticks", ticks)
        mp.setattr(propagators, "_run_schedule", channels)
        mp.setattr(propagators, "_fly", lambda rows, propagator: None)
        mp.setattr(propagators, "_check_guards", lambda config, sample: sample)
        evolve_kicked(cfg, initial_state=state, workers=1)
    return tuple(legs)


def _weighted(state):
    """`state` with unequal channel weights (same norm), one row per
    channel: the channel path."""
    weights = np.linspace(0.9, 1.1, state.clock.n_modes)
    amps = state.amplitudes * (weights / np.sqrt(np.mean(weights**2)))[:, None]
    return tc.ChannelState(state.clock, state.grid, amps)


def _kicked_composition(cfg, state):
    T, n = cfg.kick_period, cfg.kick_schedule.n_kicks
    for _ in range(n):
        state = coupling_phase_step(kinetic_step(state, T), T, cfg.region)
    return kinetic_step(state, cfg.t_final - n * T)


class TestKineticStep:
    def test_matches_free_gaussian(self):
        state, spec, grid = _free_state()
        out = kinetic_step(state, 2.0)
        analytic = oracles.free_gaussian(spec, 2.0, grid.x)
        weight = 1.0 / math.sqrt(state.clock.n_modes)
        for row in out.amplitudes:
            assert np.max(np.abs(row - weight * analytic)) < 1e-12

    def test_unitary(self):
        state, _, _ = _free_state()
        out = kinetic_step(state, 3.7)
        assert out.norm() == pytest.approx(state.norm(), abs=1e-13)
        np.testing.assert_allclose(
            out.channel_norms(), state.channel_norms(), atol=1e-13
        )

    def test_momentum_distribution_invariant(self):
        state, _, _ = _free_state()
        before = np.abs(np.fft.fft(state.amplitudes[0]))
        out = kinetic_step(state, 1.3)
        after = np.abs(np.fft.fft(out.amplitudes[0]))
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_zero_duration_is_identity(self):
        state, _, _ = _free_state()
        out = kinetic_step(state, 0.0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_composition(self):
        state, _, _ = _free_state()
        one = kinetic_step(kinetic_step(state, 0.7), 1.3)
        two = kinetic_step(state, 2.0)
        np.testing.assert_allclose(one.amplitudes, two.amplitudes, atol=1e-12)

    def test_factored_state_flies_its_rows(self):
        # a flight acts the same way on every channel, so a tick-path result
        # (8 rows, weights z_n^m) flies its rows and keeps its weights
        state = evolve_kicked(_config(mode="kicked", kick_period=0.7)).final_state
        out = kinetic_step(state, 1.3)
        assert out.rows.shape == state.rows.shape == (8, 2**9)
        np.testing.assert_array_equal(out.weights, state.weights)
        channels = tc.ChannelState(state.clock, state.grid, np.array(state.amplitudes))
        np.testing.assert_allclose(out.amplitudes, kinetic_step(channels, 1.3).amplitudes,
                                   rtol=0, atol=1e-15)


class TestCouplingPhaseStep:
    REGION = tc.RegionSpec(-8.0, 8.0)

    def test_zero_mode_untouched(self):
        state, _, _ = _free_state()
        out = coupling_phase_step(state, 1.7, self.REGION)
        j = state.clock.j
        np.testing.assert_array_equal(out.amplitudes[j], state.amplitudes[j])

    def test_outside_region_untouched(self):
        state, _, grid = _free_state()
        out = coupling_phase_step(state, 1.7, self.REGION)
        outside = ~grid.region_mask(self.REGION)
        np.testing.assert_array_equal(
            out.amplitudes[:, outside], state.amplitudes[:, outside]
        )

    def test_phase_value(self):
        state, _, grid = _free_state()
        out = coupling_phase_step(state, 0.3, self.REGION)
        inside = grid.region_mask(self.REGION)
        j = state.clock.j
        expected = np.exp(-1j * 1 * state.clock.omega * 0.3)
        ratio = out.amplitudes[j + 1, inside] / state.amplitudes[j + 1, inside]
        np.testing.assert_allclose(ratio, expected, atol=1e-12)

    def test_full_period_is_identity(self):
        state, _, _ = _free_state()
        out = coupling_phase_step(state, state.clock.period, self.REGION)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_preserves_channel_norms(self):
        state, _, _ = _free_state()
        out = coupling_phase_step(state, 2.5, self.REGION)
        np.testing.assert_allclose(
            out.channel_norms(), state.channel_norms(), atol=1e-14
        )


class TestContinuousEvolution:
    def test_channel_norms_conserved(self):
        traj = evolve_continuous(_config())
        final = traj.final_state.channel_norms()
        np.testing.assert_allclose(
            final, 1.0 / traj.final_state.clock.n_modes, atol=1e-10
        )

    def test_norm_diagnostics(self):
        traj = evolve_continuous(_config())
        assert len(traj.diagnostics) >= 2
        for s in traj.diagnostics:
            assert abs(s.norm - 1.0) < 1e-10

    def test_packet_far_from_region_leaves_clock_untouched(self):
        # packet never reaches the coupling region: no channel dephasing,
        # so the clock marginal stays exactly the initial hand kernel
        cfg = _config(region=tc.RegionSpec(25.0, 35.0), t_final=1.0)
        traj = evolve_continuous(cfg)
        theta, density = analysis.theta_distribution(traj.final_state, 128)
        expected = oracles.hand_density(cfg.clock, theta)
        np.testing.assert_allclose(density, expected, atol=1e-10)

    def test_region_spanning_grid_reads_elapsed_time(self):
        # coupling active everywhere: the clock runs rigidly and must read
        # t_final regardless of the particle dynamics
        cfg = _config(
            region=tc.RegionSpec(-40.0, 39.9),
            packet=tc.WavepacketSpec(1.0, -15.0, 3.0),
            t_final=3.0,
        )
        traj = evolve_continuous(cfg)
        series = analysis.state_tof_distribution(traj.final_state, 256)
        assert analysis.mean_reading(series) == pytest.approx(3.0, abs=1e-9)

    def test_time_reversal(self):
        # each channel Hamiltonian is real, so conjugating the final
        # amplitudes, evolving forward again, and conjugating once more
        # must recover the initial state
        cfg = _config()
        fwd = evolve_continuous(cfg)
        state = fwd.final_state
        conj = tc.ChannelState(state.clock, state.grid, state.amplitudes.conj())
        back = evolve_continuous(cfg, initial_state=conj)
        recovered = back.final_state.amplitudes.conj()
        initial, _, _ = _free_state()
        np.testing.assert_allclose(recovered, initial.amplitudes, atol=1e-10)

    def test_second_order_convergence(self):
        # Strang splitting: halving dt divides the error by ~4 once dt is
        # small enough that the discontinuous potential edge is resolved
        cfg_fine = _config(dt=0.0025, t_final=4.0)
        ref = evolve_continuous(cfg_fine).final_state.amplitudes
        errs = []
        for dt in (0.01, 0.005):
            amps = evolve_continuous(_config(dt=dt, t_final=4.0)).final_state.amplitudes
            errs.append(np.max(np.abs(amps - ref)))
        order = math.log2(errs[0] / errs[1])
        assert 1.7 < order < 2.5


class TestKickedEvolution:
    def test_channel_norms_conserved(self):
        cfg = _config(mode="kicked", kick_period=0.5)
        traj = evolve_kicked(cfg)
        np.testing.assert_allclose(
            traj.final_state.channel_norms(),
            1.0 / traj.final_state.clock.n_modes,
            atol=1e-12,
        )
        # the engine measures the drift that run_experiment reports
        assert run_experiment(cfg).max_channel_drift == traj.max_channel_drift

    def test_free_flight_between_kicks_is_exact(self):
        # kicks are pure phases, so the n = 0 channel is an exact free
        # flight for the whole run
        cfg = _config(mode="kicked", kick_period=2.0, t_final=2.0)
        traj = evolve_kicked(cfg)
        _, spec, grid = _free_state()
        analytic = oracles.free_gaussian(spec, 2.0, grid.x)
        weight = 1.0 / math.sqrt(cfg.clock.n_modes)
        np.testing.assert_allclose(
            traj.final_state.amplitudes[cfg.clock.j], weight * analytic,
            atol=1e-11,
        )

    def test_kick_count(self):
        cfg = _config(mode="kicked", kick_period=0.5, t_final=5.0)
        assert cfg.kick_schedule.n_kicks == 10
        traj = evolve_kicked(cfg)
        # one diagnostic at t=0 plus one per kick; remainder flight is empty
        assert len(traj.diagnostics) == 11

    def test_converges_to_continuous(self):
        # T -> 0: the kicked scheme is a first-order splitting of the
        # continuous dynamics, so the distance must shrink with T
        cont = evolve_continuous(_config(dt=0.005)).final_state
        ref = analysis.state_tof_distribution(cont, 128)
        dists = []
        for T in (0.4, 0.2, 0.1, 0.05):
            kicked = evolve_kicked(_config(mode="kicked", kick_period=T)).final_state
            ser = analysis.state_tof_distribution(kicked, 128)
            dists.append(analysis.distribution_distance(ref, ser)[0])
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.25 * dists[0]


def _spied_run(cfg, workers):
    """run_experiment(cfg, workers) and what it did with threads: the pools
    it opened, the blocks of each fan-out (one per flight on the tick stack,
    one per guard interval on the channels) and the pool threads that flew
    rows."""
    executors, blocks, threads, caller = [], [], set(), threading.get_ident()
    executor, each_block, fly = (propagators.ThreadPoolExecutor,
                                 propagators._each_block, propagators._fly)

    def opened(*args):
        executors.append(args)
        return executor(*args)

    def fanned_out(pool, fn, count):
        blocks.append(count)
        return each_block(pool, fn, count)

    def flown(rows, propagator):
        if threading.get_ident() != caller:
            threads.add(threading.get_ident())
        fly(rows, propagator)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagators, "ThreadPoolExecutor", opened)
        mp.setattr(propagators, "_each_block", fanned_out)
        mp.setattr(propagators, "_fly", flown)
        result = run_experiment(cfg, workers=workers)
    return result, len(executors), blocks, threads


class TestScheduleLoop:
    def test_kicked_equals_public_operator_composition(self):
        # 7 kicks and a remainder flight: both segment kinds, on the channel
        # path (unequal rows)
        cfg = _config(mode="kicked", kick_period=0.7)
        initial = _weighted(_free_state()[0])
        state = _kicked_composition(cfg, initial)
        traj = evolve_kicked(cfg, initial_state=initial)
        np.testing.assert_array_equal(traj.final_state.amplitudes, state.amplitudes)

    def test_continuous_equals_strang_composition(self):
        cfg = _config()
        n_steps = math.ceil(cfg.t_final / cfg.dt - 1e-12)
        dt = cfg.t_final / n_steps
        state, _, _ = _free_state()
        for _ in range(n_steps):
            state = coupling_phase_step(state, 0.5 * dt, cfg.region)
            state = kinetic_step(state, dt)
            state = coupling_phase_step(state, 0.5 * dt, cfg.region)
        traj = evolve_continuous(cfg)
        np.testing.assert_allclose(
            traj.final_state.amplitudes, state.amplitudes, rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("engine, mode", [
        (evolve_continuous, "kicked"), (evolve_continuous, "ideal-reference"),
        (evolve_kicked, "continuous"), (evolve_kicked, "ideal-reference"),
    ])
    def test_engine_takes_only_its_mode(self, engine, mode):
        cfg = _config(mode=mode, kick_period=0.7 if mode == "kicked" else None)
        with pytest.raises(ValueError, match=rf"^{engine.__name__} needs mode '\w+', "
                                             rf"not '{mode}'$"):
            engine(cfg)

    @pytest.mark.parametrize("engine, overrides", [
        (evolve_continuous, dict(dt=0.01)),
        (evolve_kicked, dict(mode="kicked", kick_period=0.5)),
    ], ids=["continuous", "kicked"])
    def test_engine_takes_only_its_configs_clock_and_grid(self, engine, overrides):
        # a state of another omega ran with the config's coupling (its mean
        # reading was 2.931 against 1.832), and one of another j or grid
        # failed with an error that named neither
        cfg = _config(clock=tc.ClockSpec(0.8, 4), region=tc.RegionSpec(-5.0, 5.0),
                      t_final=4.0, **overrides)
        wider = tc.SpatialGrid(-40.0, 40.0, 2**10)
        for clock, grid in [(tc.ClockSpec(0.5, 4), cfg.grid),
                            (tc.ClockSpec(0.8, 3), cfg.grid), (cfg.clock, wider)]:
            state = tc.product_state(tc.init_gaussian(cfg.packet, grid), clock, grid)
            message = (f"initial state of {clock} on {grid}, "
                       f"but the config has {cfg.clock} on {cfg.grid}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                engine(cfg, initial_state=state, workers=1)

    @pytest.mark.parametrize("engine, overrides", [
        (evolve_continuous, {}),
        (evolve_kicked, dict(mode="kicked", kick_period=0.7)),
        (evolve_kicked, dict(mode="kicked", kick_period=_commensurate_period(0.8, 1, 9))),
    ])
    def test_initial_state_not_mutated(self, engine, overrides):
        state, _, _ = _free_state()
        before = state.amplitudes.copy()
        traj = engine(_config(**overrides), initial_state=state)
        np.testing.assert_array_equal(state.amplitudes, before)
        assert not np.shares_memory(traj.final_state.amplitudes, state.amplitudes)

    # at workers 1, 2, 3 and 2j+3: 17 x 2^13 values split into at most 4
    # blocks (by size), 5 x 2^16 into at most 2 (two rows or more a block).
    # The kicked run's stack reaches 2j+1 rows within its 40 flights and
    # hands the rest to the channel loop, on the same pool: one pool a run,
    # whose threads start only as blocks are handed to it.
    @pytest.mark.parametrize("clock, grid, expected_blocks", [
        (tc.ClockSpec(0.8, 8), tc.SpatialGrid(-40.0, 40.0, 2**13), [1, 2, 3, 4]),
        (tc.ClockSpec(0.8, 2), tc.SpatialGrid(-40.0, 40.0, 2**16), [1, 2, 2, 2]),
    ])
    @pytest.mark.parametrize("overrides", [
        dict(t_final=0.1),
        dict(mode="kicked", kick_period=0.0025, t_final=0.1),
    ])
    def test_blocks_do_not_change_result(self, clock, grid, expected_blocks, overrides):
        cfg = _config(clock=clock, grid=grid, **overrides)
        if cfg.mode == "kicked":
            assert [leg[0] for leg in _path(cfg)] == ["ticks", "channels"]
        runs = []
        for workers, expected in zip((1, 2, 3, clock.n_modes + 2), expected_blocks):
            run, executors, blocks, threads = _spied_run(cfg, workers)
            assert executors == 1
            assert max(blocks) == expected
            if cfg.mode == "continuous":
                assert set(blocks) == {expected}
            assert len(threads) <= expected - 1
            assert bool(threads) == (expected > 1)
            runs.append(run)
        assert len(runs[0].diagnostics) >= 5
        for run in runs[1:]:
            np.testing.assert_array_equal(run.final_state.amplitudes,
                                          runs[0].final_state.amplitudes)
            assert run.diagnostics == runs[0].diagnostics

    def test_small_state_stays_serial(self):
        cfg = _config()
        assert cfg.clock.n_modes * cfg.grid.num_points < propagators._MIN_BLOCK_VALUES
        for cfg in (cfg, _config(mode="kicked", kick_period=0.7)):
            _, executors, blocks, threads = _spied_run(cfg, 4)
            assert executors == 1
            assert set(blocks) == {1}
            assert threads == set()

    def test_failing_guard_same_for_blocks(self):
        # the test_boundary_leak_raises config on a grid that splits, with
        # four blocks and frequent thread switches
        cfg = _config(t_final=12.0, boundary_mass_tol=1e-6,
                      grid=tc.SpatialGrid(-40.0, 40.0, 2**14))
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 4):
                with pytest.raises(BoundaryLeakError) as info:
                    run_experiment(cfg, workers=workers)
                errors.append(str(info.value))
        finally:
            sys.setswitchinterval(interval)
        assert errors == [errors[0]] * 3

    def test_lagging_block_stops_at_the_failed_check(self, monkeypatch):
        # rows 0-8 (the first block) head for the left edge, rows 9-16 stay
        # in the middle; the second block is slowed down, yet it stops at
        # the check the first one fails
        grid = tc.SpatialGrid(-40.0, 40.0, 2**14)
        clock = tc.ClockSpec(0.8, 8)
        leaving = tc.init_gaussian(tc.WavepacketSpec(1.0, -30.0, -5.0), grid)
        staying = tc.init_gaussian(tc.WavepacketSpec(1.0, 0.0, 0.0), grid)
        amps = np.array([leaving] * 9 + [staying] * 8) / math.sqrt(17)
        state = tc.ChannelState(clock, grid, amps)
        cfg = _config(clock=clock, grid=grid, mode="kicked", kick_period=0.25,
                      t_final=3.0, boundary_mass_tol=1e-3)
        with pytest.raises(BoundaryLeakError) as serial:
            evolve_kicked(cfg, initial_state=state, workers=1)

        fly, lagging_flights = propagators._fly, []

        def slow_second_block(rows, propagator):
            if rows.shape[0] == 8:
                lagging_flights.append(propagator)
                time.sleep(0.02)
            fly(rows, propagator)

        monkeypatch.setattr(propagators, "_fly", slow_second_block)
        with pytest.raises(BoundaryLeakError) as split:
            evolve_kicked(cfg, initial_state=state, workers=2)
        assert str(split.value) == str(serial.value)
        failed_at = float(str(serial.value).rsplit("t=", 1)[1])
        assert len(lagging_flights) == round(failed_at / 0.25) < 12

    def test_error_in_a_block_stops_the_others(self, monkeypatch):
        # on the tick stack of a product state, which splits from 4 live rows
        # on, and on one row per channel
        fly, other_flights = propagators._fly, []

        def second_block_fails(rows, propagator):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("second block")
            other_flights.append(propagator)
            time.sleep(0.01)
            fly(rows, propagator)

        monkeypatch.setattr(propagators, "_fly", second_block_fails)
        grid = tc.SpatialGrid(-40.0, 40.0, 2**14)
        cfg = _config(grid=grid, mode="kicked", kick_period=0.01, t_final=1.0)
        product = _free_state(grid=grid)[0]
        for state in (product, _weighted(product)):
            other_flights.clear()
            with pytest.raises(MemoryError, match="second block"):
                evolve_kicked(cfg, initial_state=state, workers=2)
            assert len(other_flights) < 10

    @pytest.mark.parametrize("engine, overrides", [
        (evolve_continuous, {}),
        (evolve_kicked, dict(mode="kicked", kick_period=0.03)),
    ])
    def test_norm_drift_same_for_blocks(self, engine, overrides):
        grid = tc.SpatialGrid(-40.0, 40.0, 2**14)
        state, _, _ = _free_state(grid=grid)
        state = tc.ChannelState(state.clock, grid, 1.001 * state.amplitudes)
        cfg = _config(grid=grid, t_final=0.1, **overrides)
        errors = []
        for workers in (1, 2):
            with pytest.raises(NormDriftError) as info:
                engine(cfg, initial_state=state, workers=workers)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].endswith("at t=0")

    @pytest.mark.parametrize("engine, overrides", [
        (evolve_continuous, {}),
        (evolve_kicked, dict(mode="kicked", kick_period=0.7)),
        (evolve_kicked, dict(mode="kicked", kick_period=_commensurate_period(0.8, 1, 9))),
    ])
    def test_nan_amplitude_fails_norm_guard(self, engine, overrides):
        state, _, _ = _free_state()
        amps = state.amplitudes.copy()
        amps[3, 100] = np.nan
        state = tc.ChannelState(state.clock, state.grid, amps)
        with pytest.raises(NormDriftError, match=r"norm drift nan at t=0$"):
            engine(_config(**overrides), initial_state=state)

    def test_norm_drift_stops_split_blocks_at_once(self, monkeypatch):
        grid = tc.SpatialGrid(-40.0, 40.0, 2**14)
        state, _, _ = _free_state(grid=grid)
        state = tc.ChannelState(state.clock, grid, 1.001 * state.amplitudes)
        cfg = _config(grid=grid, mode="kicked", kick_period=0.03, t_final=3.0)
        fly, flights = propagators._fly, []

        def counted(rows, propagator):
            flights.append(rows.shape[0])
            fly(rows, propagator)

        monkeypatch.setattr(propagators, "_fly", counted)
        with pytest.raises(NormDriftError, match=r"at t=0$"):
            evolve_kicked(cfg, initial_state=state, workers=2)
        assert flights == []

    def test_row_sums_match_state_masses(self):
        rng = np.random.default_rng(7)
        clock, grid = tc.ClockSpec(0.8, 3), tc.SpatialGrid(-40.0, 40.0, 2**9)
        amps = rng.normal(size=(7, 2**9)) + 1j * rng.normal(size=(7, 2**9))
        amps /= math.sqrt(np.sum(np.abs(amps)**2) * grid.dx)
        state = tc.ChannelState(clock, grid, amps)
        region = tc.RegionSpec(-8.0, 8.0)
        # the outermost 1 % of 2^9 points: 5 at each edge
        assert grid.edges == (slice(None, 5), slice(-5, None))
        inner, dx = grid.region_slice(region), grid.dx
        p = np.abs(amps) ** 2
        norms = np.sum(p, axis=1) * dx
        inside = np.sum(p[:, inner]) * dx
        edges = (np.sum(p[:, :5]) + np.sum(p[:, -5:])) * dx
        sums = tc.core.row_sums(amps, slice(None), inner, *grid.edges)
        sample = propagators._sample(0.0, sums, dx)
        assert sample.norm == pytest.approx(np.sum(norms), rel=0, abs=1e-14)
        assert sample.region_mass == pytest.approx(inside, rel=0, abs=1e-14)
        assert sample.boundary_mass == pytest.approx(edges, rel=0, abs=1e-14)
        assert state.norm() == pytest.approx(np.sum(norms), rel=0, abs=1e-14)
        assert state.region_mass(region) == pytest.approx(inside, rel=0, abs=1e-14)
        assert state.boundary_mass() == pytest.approx(edges, rel=0, abs=1e-14)
        np.testing.assert_allclose(state.channel_norms(), norms, rtol=0, atol=1e-14)
        report = analysis.transmission_report(state, region)
        np.testing.assert_allclose(report.left, np.sum(p[:, :inner.start], axis=1) * dx,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(report.inside, np.sum(p[:, inner], axis=1) * dx,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(report.right, np.sum(p[:, inner.stop:], axis=1) * dx,
                                   rtol=0, atol=1e-14)


def _expected_path(cfg, product):
    """The loops `_path` should find: the tick stack when the state is a
    product, up to its first flight of 2j+1 live rows if it would grow past
    2j+1 rows, and one row per channel from there, or from the start."""
    n, sched = cfg.clock.n_modes, cfg.kick_schedule
    segments = sched.n_kicks + (cfg.t_final - sched.n_kicks * sched.period
                                > 1e-12 * cfg.t_final)
    rows = sched.n_kicks + 1
    if not product:
        return (("channels", n, segments),)
    if rows <= n:
        return (("ticks", rows, segments),)
    # segment i flies i + 1 live rows (j > 0), so segment n - 1 would fly n
    return (("ticks", n, n - 1), ("channels", n, segments - n + 1))


@st.composite
def _random_kicked_runs(draw):
    """A small kicked config with omega T / 2 pi either a fraction a / b,
    b < 2j+1, or a random float, and an initial state that is a product or
    one row per channel, the rows repeating a few weights; also the loops
    `_path` should find."""
    j = draw(st.integers(1, 6))
    n_modes = 2 * j + 1
    T = draw(st.floats(0.3, 1.2))
    if draw(st.booleans()):
        weights = [1.0] * n_modes
    else:
        weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                min_size=n_modes, max_size=n_modes))
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, n_modes - 1))
        omega = 2.0 * math.pi * a / (b * T)
    else:
        omega = draw(st.floats(0.2, 3.0))
    grid = tc.SpatialGrid(-40.0, 40.0, 2**8)
    cfg = _config(clock=tc.ClockSpec(omega, j), grid=grid, mode="kicked", t_final=3.0,
                  kick_period=T)
    product = len(set(weights)) == 1
    weights = np.array(weights) / math.sqrt(np.sum(np.square(weights)))
    psi = tc.init_gaussian(cfg.packet, grid)
    if product:
        state = tc.product_state(psi, cfg.clock, grid)
    else:
        state = tc.ChannelState(cfg.clock, grid, np.outer(weights, psi))
    return cfg, state, _expected_path(cfg, product)


@st.composite
def _random_tick_runs(draw):
    """A small kicked product-state config, which starts on the tick path,
    and whether its period is commensurate: either omega T / 2 pi = a / b
    with b below the kick count, so the kicks run past one clock period and
    channels b apart share every kick phase, or a random float.  Half the
    draws have 2j+1 to 2(2j+1) kicks, which would grow the stack past 2j+1
    rows, so that it hands over to the channel loop; the others 3 to 2j - 1
    kicks, which it runs to the end."""
    j = draw(st.integers(3, 6))
    n_modes = 2 * j + 1
    kicks = draw(st.integers(n_modes, 2 * n_modes) if draw(st.booleans())
                 else st.integers(3, n_modes - 2))
    T = 3.0 / (kicks + draw(st.floats(0.0, 0.9)))
    commensurate = draw(st.booleans())
    if commensurate:
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, kicks - 1))
        omega = 2.0 * math.pi * a / (b * T)
    else:
        omega = draw(st.floats(0.2, 3.0))
    grid = tc.SpatialGrid(-40.0, 40.0, 2**8)
    cfg = _config(clock=tc.ClockSpec(omega, j), grid=grid, mode="kicked", t_final=3.0,
                  kick_period=T)
    return cfg, commensurate


class TestKickClasses:
    """Which rows a kicked run propagates: the tick stack of a product
    state, up to 2j+1 rows, and one row per channel otherwise."""

    # the rows of each run's stack, one per kick count, and its row-flights.
    # T0.1 and T0.2 reach 101 live rows at t=10 and t=20 and fly the rest on
    # 101 channels: T0.1 5050 + 150 x 101, against 25250 on channels alone
    # (T0.2 fails its boundary guard at t=20, before the hand-over)
    ROW_FLIGHTS = {0.1: 20200, 0.2: 7575, 0.5: 1275, 1.0: 325, 2.0: 91, 5.0: 15}
    CHANNEL_SEGMENTS = {0.1: 150, 0.2: 25}

    @pytest.mark.parametrize("T, expected", [
        (0.1, 101), (0.2, 101), (0.5, 51), (1.0, 26), (2.0, 13), (5.0, 6),
    ])
    def test_fig1_class_counts(self, T, expected):
        cfg = get_preset(f"fig1-kicked-T{T:g}")
        (loop, rows, _), *channels = _path(cfg)
        assert (loop, rows) == ("ticks", expected)
        assert channels == ([("channels", 101, self.CHANNEL_SEGMENTS[T])]
                            if T in self.CHANNEL_SEGMENTS else [])
        assert _row_flights(cfg) == self.ROW_FLIGHTS[T]

    def test_continuous_takes_channel_path(self, monkeypatch):
        # the continuous engine propagates one row per channel
        def no_ticks(*args):
            raise AssertionError("the continuous engine took the tick path")

        monkeypatch.setattr(propagators, "_run_ticks", no_ticks)
        evolve_continuous(_config(t_final=0.1))

    @pytest.mark.parametrize("product", [True, False])
    def test_only_equal_weights_take_tick_stack(self, product):
        # omega T / 2 pi = 1/9; only a factored state with equal weights takes
        # the tick stack, and a state with one row per channel is bitwise the
        # operator composition
        cfg = _config(mode="kicked", kick_period=_commensurate_period(0.8, 1, 9))
        state, _, _ = _free_state()
        if not product:
            state = _weighted(state)
        expected = _kicked_composition(cfg, state).amplitudes
        final = evolve_kicked(cfg, initial_state=state).final_state.amplitudes
        if product:
            assert _path(cfg, state) == (("ticks", 6, 6),)
            np.testing.assert_allclose(final, expected, rtol=0, atol=1e-12)
            # the same channels, built by hand as equal rows, are not factored
            rows = tc.ChannelState(state.clock, state.grid, state.amplitudes.copy())
            assert _path(cfg, rows) == (("channels", 17, 6),)
        else:
            assert _path(cfg, state) == (("channels", 17, 6),)
            np.testing.assert_array_equal(final, expected)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_random_kicked_runs())
    def test_random_configs_match_operator_composition(self, run):
        cfg, state, path = run
        assert _path(cfg, state) == path
        final = evolve_kicked(cfg, initial_state=state).final_state
        np.testing.assert_allclose(final.channel_norms(), state.channel_norms(),
                                   rtol=0, atol=1e-12)
        expected = _kicked_composition(cfg, state).amplitudes
        np.testing.assert_allclose(final.amplitudes, expected, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_random_tick_runs())
    def test_random_configs_diagnostics_match_channel_path(self, run):
        # a commensurate run kicks past one clock period, where readings a
        # whole period apart coincide; the clock marginal is the theta-grid
        # oracle's all the same
        cfg, commensurate = run
        loops = [leg[0] for leg in _path(cfg)]
        assert loops in (["ticks"], ["ticks", "channels"])
        if commensurate:
            assert cfg.kick_schedule.n_kicks * cfg.kick_period > cfg.clock.period
        ticks = run_experiment(cfg)
        # read from the factors unless the channel loop took over
        assert (ticks.final_state.weights is None) == (loops[-1] == "channels")
        _, density = analysis.theta_distribution(ticks.final_state, 64)
        np.testing.assert_allclose(density[:-1],
                                   oracles.evolve_theta_grid(cfg, 64).theta_marginal(),
                                   rtol=0, atol=1e-10)
        with pytest.MonkeyPatch.context() as mp:
            # a tick loop that runs no segment leaves the run to the channels
            mp.setattr(propagators, "_run_ticks", lambda config, state, *args: (state, [], 0))
            channels = run_experiment(cfg)
        assert channels.final_state.weights is None
        assert len(ticks.diagnostics) == len(channels.diagnostics)
        for a, b in zip(ticks.diagnostics, channels.diagnostics):
            assert a.t == b.t
            assert a.norm == pytest.approx(b.norm, rel=0, abs=1e-13)
            assert a.region_mass == pytest.approx(b.region_mass, rel=0, abs=1e-13)
            assert a.boundary_mass == pytest.approx(b.boundary_mass, rel=0, abs=1e-13)
        np.testing.assert_allclose(ticks.final_state.amplitudes,
                                   channels.final_state.amplitudes, rtol=0, atol=1e-12)
        _, channel_density = analysis.theta_distribution(channels.final_state, 64)
        np.testing.assert_allclose(density, channel_density, rtol=0, atol=1e-13)
        reports = [analysis.transmission_report(run.final_state, cfg.region)
                   for run in (ticks, channels)]
        for part in ("left", "inside", "right"):
            np.testing.assert_allclose(getattr(reports[0], part), getattr(reports[1], part),
                                       rtol=0, atol=1e-13)
        assert ticks.max_channel_drift == pytest.approx(channels.max_channel_drift,
                                                        rel=0, abs=1e-13)

    def test_workers_do_not_change_result(self):
        # 13 kicks grow the stack to 14 rows of 2^14 points, so the 14 flights
        # carry 1 to 14 live rows: from 4 on, a flight splits into two blocks,
        # and at four workers into three from 6 on and four from 8 on
        cfg = _config(grid=tc.SpatialGrid(-40.0, 40.0, 2**14), mode="kicked",
                      kick_period=_commensurate_period(0.8, 1, 9), t_final=12.0)
        assert _path(cfg) == (("ticks", 14, 14),)
        expected = {1: [1] * 14, 2: [1] * 3 + [2] * 11, 4: [1, 1, 1, 2, 2, 3, 3] + [4] * 7}
        runs = []
        for workers, blocks_per_flight in expected.items():
            run, executors, blocks, threads = _spied_run(cfg, workers)
            assert (executors, blocks) == (1, blocks_per_flight)
            assert len(threads) <= max(blocks) - 1
            assert bool(threads) == (workers > 1)
            runs.append(run)
        for run in runs[1:]:
            np.testing.assert_array_equal(run.final_state.amplitudes,
                                          runs[0].final_state.amplitudes)
            assert run.diagnostics == runs[0].diagnostics

    def test_fig1_t02_leak_message(self):
        # the tick path's masses fail the boundary guard at the same kick and
        # to the same digits as the channel path did, before the stack's
        # first flight of 101 rows
        cfg = dataclasses.replace(get_preset("fig1-kicked-T0.2"),
                                  grid=tc.SpatialGrid(-250.0, 150.0, 2**12))
        assert _path(cfg) == (("ticks", 101, 100), ("channels", 101, 25))
        with pytest.raises(BoundaryLeakError) as info:
            run_experiment(cfg)
        assert str(info.value) == "boundary occupancy 2.053e-02 at t=20"

    @pytest.mark.parametrize("error, overrides, scale", [
        (BoundaryLeakError, dict(t_final=12.0, boundary_mass_tol=1e-6), 1.0),
        (NormDriftError, dict(t_final=3.0), 1.0 + 1e-6),
    ], ids=["BoundaryLeakError", "NormDriftError"])
    def test_guards_same_as_channel_path(self, error, overrides, scale):
        # the product state's channels, built by hand as one row each, take
        # the channel path
        grid = tc.SpatialGrid(-40.0, 40.0, 2**14)
        cfg = _config(grid=grid, mode="kicked", kick_period=_commensurate_period(0.8, 1, 9),
                      **overrides)
        spec = tc.WavepacketSpec(1.0, -15.0, 5.0)
        product = tc.product_state(scale * tc.init_gaussian(spec, grid), cfg.clock, grid)
        channels = tc.ChannelState(cfg.clock, grid, product.amplitudes.copy())
        assert _path(cfg, product)[0][0] == "ticks"
        assert _path(cfg, channels)[0][:2] == ("channels", 17)
        messages = []
        for state in (channels, product):
            for workers in (1, 2, 4):
                with pytest.raises(error) as info:
                    evolve_kicked(cfg, initial_state=state, workers=workers)
                messages.append(str(info.value))
        assert messages == [messages[0]] * 6
        if error is BoundaryLeakError:
            assert not messages[0].endswith("at t=0")


class TestRunExperiment:
    def test_continuous_dispatch(self):
        result = run_experiment(_config())
        assert result.config.mode == "continuous"
        assert result.final_state is not None
        assert result.norm_drift < 1e-10
        assert result.max_channel_drift < 1e-10
        assert result.wall_time > 0

    def test_ideal_reference_dispatch(self):
        # the ideal reference is a closed form: oracles.ideal_dwell gives it
        with pytest.raises(ValueError, match="^an ideal-reference config has nothing "
                                             "to propagate$"):
            run_experiment(_config(mode="ideal-reference"))

    def test_collision_unfinished_raises(self):
        with pytest.raises(CollisionUnfinishedError):
            run_experiment(_config(t_final=3.0, region_mass_tol=1e-4))

    def test_boundary_leak_raises(self):
        cfg = _config(t_final=12.0, boundary_mass_tol=1e-6)
        with pytest.raises(BoundaryLeakError):
            run_experiment(cfg)

    def test_workers_do_not_change_result(self):
        a = run_experiment(_config(), workers=1).final_state.amplitudes
        b = run_experiment(_config(), workers=4).final_state.amplitudes
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(_config(), workers=workers)
