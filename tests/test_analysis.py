import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

import tofclock as tc
from tofclock import analysis
from tofclock.analysis import (
    DistributionSeries,
    distribution_distance,
    mean_reading,
    state_tof_distribution,
    theta_distribution,
    theta_grid,
    transmission_report,
)
from tofclock.oracles import hand_density
from tofclock.propagators import evolve_kicked, kinetic_step


CLOCK = tc.ClockSpec(0.8, 8)
GRID = tc.SpatialGrid(-40.0, 40.0, 2**9)
SPEC = tc.WavepacketSpec(1.0, -15.0, 5.0)


def _state():
    psi = tc.init_gaussian(SPEC, GRID)
    return tc.product_state(psi, CLOCK, GRID)


def _rotated_state(duration):
    """Product state with the clock rotated rigidly by omega * duration."""
    state = _state()
    phases = np.exp(-1j * CLOCK.modes * CLOCK.omega * duration)
    return tc.ChannelState(CLOCK, GRID, state.amplitudes * phases[:, None])


class TestOverlapMatrix:
    def test_product_state(self):
        O = _state().overlaps()[0]
        n = CLOCK.n_modes
        np.testing.assert_allclose(O, np.full((n, n), 1.0 / n), atol=1e-12)

    def test_hermitian_with_norms_on_diagonal(self):
        state = kinetic_step(_state(), 1.3)
        O = state.overlaps()[0]
        np.testing.assert_allclose(O, O.conj().T, atol=1e-14)
        np.testing.assert_allclose(np.diag(O).real, state.channel_norms(), atol=1e-13)
        assert np.trace(O).real == pytest.approx(state.norm(), abs=1e-12)

    def test_factors_match_expanded_channels(self):
        # three random rows with random complex weights, against the same
        # channels held one row each, over the whole grid and over slices
        rng = np.random.default_rng(3)
        n = CLOCK.n_modes
        rows = rng.normal(size=(3, GRID.num_points)) + 1j * rng.normal(size=(3, GRID.num_points))
        weights = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        factored = tc.ChannelState(CLOCK, GRID, rows, weights)
        expanded = tc.ChannelState(CLOCK, GRID, weights @ rows)
        columns = (slice(None), slice(None, 100), slice(100, 300), slice(300, None))
        a, b = factored.overlaps(*columns), expanded.overlaps(*columns)
        assert a.shape == (4, n, n)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
        masses = factored.overlaps(*columns, diagonal=True)
        np.testing.assert_allclose(masses, expanded.overlaps(*columns, diagonal=True),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(masses, np.diagonal(b, axis1=1, axis2=2).real,
                                   rtol=1e-13, atol=0)


class TestThetaDistribution:
    def test_fresh_hand_peak(self):
        theta, density = theta_distribution(_state(), 128)
        # Fejer-type kernel: peak value N/(2*pi) at theta = 0
        assert density[0] == pytest.approx(CLOCK.n_modes / (2.0 * math.pi), rel=1e-12)
        np.testing.assert_allclose(density, hand_density(CLOCK, theta), atol=1e-12)

    def test_closed_grid_wraps(self):
        theta, density = theta_distribution(_state(), 128)
        assert theta.shape == (129,)
        assert theta[-1] == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert density[-1] == pytest.approx(density[0], rel=1e-12)

    def test_mass_equals_norm(self):
        state = kinetic_step(_state(), 2.0)
        theta, density = theta_distribution(state, 256)
        assert np.trapezoid(density, theta) == pytest.approx(state.norm(), abs=1e-9)

    def test_nonnegative(self):
        theta, density = theta_distribution(kinetic_step(_state(), 2.0), 256)
        assert density.min() > -1e-12

    def test_rejects_undersampling(self):
        with pytest.raises(ValueError):
            theta_distribution(_state(), CLOCK.n_modes)

    @pytest.mark.parametrize("j, intervals", [(8, 1024), (255, 1024), (256, 1026),
                                              (600, 2402)])
    def test_default_grid_from_the_clock(self, j, intervals):
        # max(THETA_POINTS, 2(2j+1)) intervals: the Nyquist rate once it passes 1024
        assert theta_grid(tc.ClockSpec(0.8, j)).size == intervals + 1
        with pytest.raises(ValueError, match=f"need at least {2 * (2 * j + 1)}"):
            theta_grid(tc.ClockSpec(0.8, j), 2 * (2 * j + 1) - 1)

    def test_global_phase_invariance(self):
        state = _state()
        phased = tc.ChannelState(CLOCK, GRID, state.amplitudes * np.exp(0.7j))
        _, a = theta_distribution(state, 128)
        _, b = theta_distribution(phased, 128)
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_rigid_rotation_shifts_peak(self):
        duration = 1.5
        theta, density = theta_distribution(_rotated_state(duration), 512)
        assert theta[np.argmax(density)] == pytest.approx(
            CLOCK.omega * duration, abs=2.0 * math.pi / 512
        )

    def test_single_mode_is_uniform(self):
        clock0 = tc.ClockSpec(0.8, 0)
        psi = tc.init_gaussian(SPEC, GRID)
        state = tc.product_state(psi, clock0, GRID)
        _, density = theta_distribution(state, 64)
        np.testing.assert_allclose(density, 1.0 / (2.0 * math.pi), atol=1e-13)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(j=st.integers(0, 6), extra=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
    def test_matches_double_sum(self, j, extra, seed):
        # random (non-product) states; M from the Nyquist floor 2N to 3N + 5
        clock = tc.ClockSpec(0.8, j)
        n = clock.n_modes
        m = 2 * n + extra % (n + 6)
        grid = tc.SpatialGrid(-4.0, 4.0, 16)
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
        state = tc.ChannelState(clock, grid, amps)
        theta, density = theta_distribution(state, m)

        O = state.overlaps()[0]
        expected = np.zeros(m + 1)
        for k, t in enumerate(theta):
            expected[k] = sum(
                (np.exp(1j * (a - b) * t) * O[i, i2]).real
                for i, a in enumerate(clock.modes)
                for i2, b in enumerate(clock.modes)
            ) / (2.0 * math.pi)
        scale = np.abs(expected).max()
        assert np.abs(density - expected).max() <= 1e-13 * scale
        assert density[-1] == density[0]


class TestDistributionSeries:
    def test_from_density_builds_cdf(self):
        t = np.linspace(0.0, 2.0, 201)
        dist = DistributionSeries.from_density(t, np.full_like(t, 0.5))
        assert dist.total_mass == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(dist.cdf, 0.5 * t, atol=1e-12)

        # the running sum is scipy's cumulative trapezoid, byte for byte
        cfg = tc.ExperimentConfig(
            physical=tc.PhysicalConfig(), region=tc.RegionSpec(-8.0, 8.0),
            clock=CLOCK, packet=SPEC, grid=GRID, mode="kicked", t_final=4.0,
            kick_period=0.5, region_mass_tol=1.0, boundary_mass_tol=1.0,
        )
        kicked = state_tof_distribution(evolve_kicked(cfg).final_state)
        for series in (dist, kicked):
            want = cumulative_trapezoid(series.density, series.times, initial=0.0)
            assert series.cdf.tobytes() == want.tobytes()

    def test_cdf_monotone(self):
        t = np.linspace(0.0, 1.0, 100)
        dist = DistributionSeries.from_density(t, np.exp(-t))
        assert np.all(np.diff(dist.cdf) >= 0)
        assert dist.cdf[0] == 0.0

    def test_clips_roundoff_negatives(self):
        t = np.linspace(0.0, 1.0, 10)
        density = np.full_like(t, 1.0)
        density[3] = -1e-14
        dist = DistributionSeries.from_density(t, density)
        assert dist.density[3] == 0.0

    def test_rejects_nan(self):
        t = np.linspace(0.0, 1.0, 10)
        density = np.full_like(t, 1.0)
        density[3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            DistributionSeries.from_density(t, density)

    def test_rejects_significant_negatives(self):
        t = np.linspace(0.0, 1.0, 10)
        density = np.full_like(t, 1.0)
        density[3] = -1e-3
        with pytest.raises(ValueError):
            DistributionSeries.from_density(t, density)

    @pytest.mark.parametrize("times, density", [
        (np.linspace(0.0, 1.0, 2), np.ones(5)),
        (np.linspace(0.0, 1.0, 5), np.ones(2)),
        (np.empty(0), np.empty(0)),
        (np.zeros(1), np.ones(1)),
        (np.zeros((2, 3)), np.ones((2, 3))),
    ], ids=["short-times", "short-density", "empty", "one-sample", "two-dimensional"])
    def test_rejects_malformed_samples(self, times, density):
        # a series needs one time per density value, two of them at least
        with pytest.raises(ValueError, match="need 1-D times and density of one length >= 2"):
            DistributionSeries.from_density(times, density)


class TestStateTofDistribution:
    def test_times_are_theta_grid_over_omega(self):
        series = analysis.state_tof_distribution(_state(), 256)
        np.testing.assert_array_equal(series.times, theta_grid(CLOCK, 256) / CLOCK.omega)
        assert series.times[-1] == pytest.approx(CLOCK.period, rel=1e-15)

    def test_mass_equals_state_norm(self):
        # a non-unit norm, so a rescale that renormalised would show
        state = kinetic_step(_state(), 1.0)
        state = tc.ChannelState(CLOCK, GRID, 0.8 * state.amplitudes)
        series = analysis.state_tof_distribution(state, 256)
        assert series.total_mass == pytest.approx(state.norm(), abs=1e-12)


class TestMeanReading:
    def test_fresh_hand_reads_zero(self):
        series = analysis.state_tof_distribution(_state(), 256)
        assert mean_reading(series) == pytest.approx(0.0, abs=1e-9)

    def test_rotated_hand_reads_elapsed_time(self):
        # the circular mean is reported as the centered representative in
        # (-period/2, period/2], so compare modulo the period
        period = CLOCK.period
        for duration in (0.5, 2.0, 5.0):
            series = analysis.state_tof_distribution(_rotated_state(duration), 256)
            delta = (mean_reading(series) - duration + 0.5 * period) % period
            assert delta - 0.5 * period == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(j=st.integers(1, 8), fraction=st.floats(0.0, 1.0, exclude_max=True))
    def test_rotated_hand_unwrapped_below_seven_eighths(self, j, fraction):
        # the window's centre lies in [-pi/4, 7*pi/4): a hand rotated by d
        # reads d for d in [0, 7P/8) and d - P above
        assume(abs(fraction - 0.875) > 1e-9)
        clock = tc.ClockSpec(2.0 * math.pi / 25.0, j)
        duration = fraction * clock.period
        psi = tc.init_gaussian(SPEC, GRID)
        amps = (tc.product_state(psi, clock, GRID).amplitudes
                * np.exp(-1j * clock.modes * clock.omega * duration)[:, None])
        series = analysis.state_tof_distribution(tc.ChannelState(clock, GRID, amps), 256)
        expected = duration if fraction < 0.875 else duration - clock.period
        assert mean_reading(series) == pytest.approx(expected, abs=1e-9)

    def test_wraparound_insensitive(self):
        # a reading just past zero: the kernel wings wrap through t = period
        # and a plain linear mean over [0, period) would be far off
        duration = 0.1
        series = analysis.state_tof_distribution(_rotated_state(duration), 256)
        assert mean_reading(series) == pytest.approx(duration, abs=1e-9)


class TestDistributionDistance:
    def test_identical_is_zero(self):
        series = analysis.state_tof_distribution(_state(), 128)
        assert distribution_distance(series, series) == (0.0, 0.0)

    def test_symmetric(self):
        a = analysis.state_tof_distribution(_rotated_state(1.0), 128)
        b = analysis.state_tof_distribution(_rotated_state(2.0), 128)
        assert distribution_distance(a, b) == distribution_distance(b, a)

    def test_disjoint_unit_masses(self):
        # two narrow bumps with disjoint support: sup-CDF distance -> 1,
        # L1 density distance -> 2
        t = np.linspace(0.0, 10.0, 4001)
        bump = lambda c: np.exp(-((t - c) ** 2) / (2 * 0.05**2)) / (
            0.05 * math.sqrt(2 * math.pi)
        )
        a = DistributionSeries.from_density(t, bump(3.0))
        b = DistributionSeries.from_density(t, bump(7.0))
        sup_cdf, l1 = distribution_distance(a, b)
        assert sup_cdf == pytest.approx(1.0, abs=1e-6)
        assert l1 == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("partners", [1, 17, 40])
    def test_stack_equals_pairwise_calls(self, partners):
        # one kernel serves both: a stack of partner rows reads, bit for bit,
        # what distribution_distance reads one partner at a time
        t = np.linspace(0.0, 7.5, 1025)
        rng = np.random.default_rng(partners)
        a, *rest = (DistributionSeries.from_density(t, rng.random(t.size))
                    for _ in range(partners + 1))
        sup_cdf, l1 = analysis.stack_distance(a, np.array([b.cdf for b in rest]),
                                              np.array([b.density for b in rest]))
        assert sup_cdf.shape == l1.shape == (partners,)
        pairwise = [distribution_distance(a, b) for b in rest]
        assert list(zip(sup_cdf.tolist(), l1.tolist())) == pairwise

    def test_rejects_mismatched_grids(self):
        t1 = np.linspace(0.0, 1.0, 11)
        t2 = np.linspace(0.0, 2.0, 11)
        a = DistributionSeries.from_density(t1, np.ones_like(t1))
        b = DistributionSeries.from_density(t2, np.ones_like(t2))
        with pytest.raises(ValueError):
            distribution_distance(a, b)


class TestTransmissionReport:
    REGION = tc.RegionSpec(-8.0, 8.0)

    def test_initial_packet_all_left(self):
        report = transmission_report(_state(), self.REGION)
        assert report.total_left == pytest.approx(1.0, abs=1e-9)
        assert report.total_inside == pytest.approx(0.0, abs=1e-9)
        assert report.total_right == pytest.approx(0.0, abs=1e-9)

    def test_free_flight_moves_mass_right(self):
        state = kinetic_step(_state(), 7.0)  # center moves -15 -> +20
        report = transmission_report(state, self.REGION)
        # the spread packet (width ~3.6) still has a small tail left of x=8
        assert report.total_right == pytest.approx(1.0, abs=2e-3)
        assert report.total_right > report.total_left + report.total_inside

    def test_totals_sum_to_norm(self):
        state = kinetic_step(_state(), 3.0)
        report = transmission_report(state, self.REGION)
        total = report.total_left + report.total_inside + report.total_right
        assert total == pytest.approx(state.norm(), abs=1e-12)

    def test_per_channel_rows(self):
        report = transmission_report(_state(), self.REGION)
        assert report.left.shape == (CLOCK.n_modes,)
        np.testing.assert_allclose(report.left, 1.0 / CLOCK.n_modes, atol=1e-9)


class TestHandDensity:
    def test_peak_and_mass(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 4097)
        density = hand_density(CLOCK, theta)
        assert density[0] == pytest.approx(CLOCK.n_modes / (2.0 * math.pi), rel=1e-12)
        assert np.trapezoid(density, theta) == pytest.approx(1.0, abs=1e-9)

    def test_zeros_at_multiples_of_resolution_angle(self):
        # the kernel vanishes at theta = 2*pi*k/N for k = 1..N-1
        n = CLOCK.n_modes
        theta = 2.0 * math.pi * np.arange(1, n) / n
        np.testing.assert_allclose(hand_density(CLOCK, theta), 0.0, atol=1e-12)
