import dataclasses
import math

import numpy as np
import pytest

import tofclock as tc
from tofclock.core import DOMINANCE_FACTOR, validate_regime
from tofclock.presets import get_preset


class TestSpecs:
    def test_physical_defaults(self):
        phys = tc.PhysicalConfig()
        assert phys.m == 1.0 and phys.hbar == 1.0

    @pytest.mark.parametrize("kwargs", [dict(m=0.0), dict(m=-1.0), dict(hbar=0.0)])
    def test_physical_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            tc.PhysicalConfig(**kwargs)

    def test_region_width(self):
        assert tc.RegionSpec(-25.0, 25.0).width == 50.0

    def test_region_rejects_degenerate(self):
        with pytest.raises(ValueError):
            tc.RegionSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            tc.RegionSpec(2.0, -2.0)

    def test_clock_mode_count_and_ladder(self):
        clock = tc.ClockSpec(omega=1.0, j=3)
        assert clock.n_modes == 7
        assert list(clock.modes) == [-3, -2, -1, 0, 1, 2, 3]

    def test_clock_resolution_identity(self):
        # tau * N * omega = 2*pi by construction
        for omega, j in [(1.0, 0), (0.3, 5), (2.0 * math.pi / 25.0, 50)]:
            clock = tc.ClockSpec(omega, j)
            assert clock.tau * clock.n_modes * clock.omega == pytest.approx(
                2.0 * math.pi, rel=1e-15
            )
            assert clock.period == pytest.approx(2.0 * math.pi / omega, rel=1e-15)

    def test_clock_resolution_values(self):
        # [TRIVIAL] j=0, omega=2*pi: single tick spans the whole period
        assert tc.ClockSpec(2.0 * math.pi, 0).tau == pytest.approx(1.0)
        # [DERIVED] 2*pi / (101 * 2*pi/25) = 25/101
        assert tc.ClockSpec(2.0 * math.pi / 25.0, 50).tau == pytest.approx(
            25.0 / 101.0, rel=1e-14
        )

    def test_clock_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            tc.ClockSpec(0.0, 3)
        with pytest.raises(ValueError):
            tc.ClockSpec(1.0, -1)
        # a bool is an Integral, but its config.txt would not load
        for j in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="j must be"):
                tc.ClockSpec(1.0, j)

    def test_packet_momentum_spread(self):
        spec = tc.WavepacketSpec(sigma=2.0, x0=0.0, p0=5.0)
        assert spec.momentum_std() == pytest.approx(0.25)
        assert spec.momentum_std(hbar=2.0) == pytest.approx(0.5)

    def test_packet_negative_momentum_weight(self):
        # [DERIVED] weight = erfc(p0 / (sqrt(2) sp)) / 2 with sp = 1/(2 sigma)
        spec = tc.WavepacketSpec(sigma=1.0, x0=0.0, p0=1.0)
        expected = 0.5 * math.erfc(1.0 / (math.sqrt(2.0) * 0.5))
        assert spec.negative_momentum_weight() == pytest.approx(expected, rel=1e-14)
        # [TRIVIAL] p0 = 0: half the Gaussian is below zero
        assert tc.WavepacketSpec(1.0, 0.0, 0.0).negative_momentum_weight() == pytest.approx(0.5)

    def test_packet_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            tc.WavepacketSpec(0.0, 0.0, 5.0)


class TestGrid:
    def test_sampling(self):
        grid = tc.SpatialGrid(0.0, 1.0, 8)
        assert grid.dx == pytest.approx(0.125)
        np.testing.assert_allclose(grid.x, 0.125 * np.arange(8), atol=1e-15)

    def test_wavenumbers_fft_order(self):
        grid = tc.SpatialGrid(0.0, 1.0, 8)
        expected = 2.0 * math.pi * np.array([0, 1, 2, 3, -4, -3, -2, -1])
        np.testing.assert_allclose(grid.k, expected, rtol=1e-14)

    def test_rejects_non_power_of_two(self):
        for n in (0, 7, 12, 100, 8.0):
            with pytest.raises(ValueError, match="num_points"):
                tc.SpatialGrid(0.0, 1.0, n)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            tc.SpatialGrid(1.0, 1.0, 16)

    def test_region_mask_closed_interval(self):
        grid = tc.SpatialGrid(0.0, 8.0, 8)  # x = 0, 1, ..., 7
        mask = grid.region_mask(tc.RegionSpec(2.0, 5.0))
        np.testing.assert_array_equal(np.nonzero(mask)[0], [2, 3, 4, 5])
        # region_slice selects exactly the mask's points: edges on grid
        # points, between grid points, the whole grid, and no grid point
        for left, right, expected in [(2.0, 5.0, [2, 3, 4, 5]),
                                      (1.5, 5.5, [2, 3, 4, 5]),
                                      (0.0, 7.0, list(range(8))),
                                      (2.2, 2.8, [])]:
            region = tc.RegionSpec(left, right)
            points = np.arange(8)[grid.region_slice(region)]
            np.testing.assert_array_equal(points, expected)
            np.testing.assert_array_equal(
                points, np.nonzero(grid.region_mask(region))[0]
            )


class TestInitialState:
    GRID = tc.SpatialGrid(-40.0, 40.0, 2**10)
    SPEC = tc.WavepacketSpec(sigma=1.5, x0=-10.0, p0=4.0)

    def test_norm(self):
        psi = tc.init_gaussian(self.SPEC, self.GRID)
        assert np.sum(np.abs(psi) ** 2) * self.GRID.dx == pytest.approx(1.0, abs=1e-13)

    def test_position_moments(self):
        psi = tc.init_gaussian(self.SPEC, self.GRID)
        rho = np.abs(psi) ** 2 * self.GRID.dx
        mean = np.sum(self.GRID.x * rho)
        var = np.sum((self.GRID.x - mean) ** 2 * rho)
        assert mean == pytest.approx(self.SPEC.x0, abs=1e-10)
        assert var == pytest.approx(self.SPEC.sigma**2, rel=1e-10)

    def test_momentum_moments(self):
        psi = tc.init_gaussian(self.SPEC, self.GRID)
        phi = np.fft.fft(psi)
        w = np.abs(phi) ** 2
        w /= w.sum()
        k = self.GRID.k
        p_mean = np.sum(k * w)
        p_var = np.sum((k - p_mean) ** 2 * w)
        assert p_mean == pytest.approx(self.SPEC.p0, abs=1e-10)
        assert p_var == pytest.approx(self.SPEC.momentum_std() ** 2, rel=1e-10)

    def test_rejects_packet_near_edge(self):
        with pytest.raises(ValueError):
            tc.init_gaussian(tc.WavepacketSpec(1.0, -35.0, 4.0), self.GRID)
        with pytest.raises(ValueError):
            tc.init_gaussian(tc.WavepacketSpec(10.0, 0.0, 4.0), self.GRID)

    def test_rejects_momenta_past_grid(self):
        # pi hbar / dx = 40.2124 on GRID; |p0| + 8 sigma_p = |p0| + 2.6667
        for p0 in (37.5, -37.5):
            tc.init_gaussian(tc.WavepacketSpec(1.5, -10.0, p0), self.GRID)
        for p0 in (37.6, -37.6):
            with pytest.raises(ValueError, match=r"= 40\.2667 .* = 40\.2124$"):
                tc.init_gaussian(tc.WavepacketSpec(1.5, -10.0, p0), self.GRID)

    def test_hand_weights_uniform(self):
        clock = tc.ClockSpec(1.0, 4)
        psi = tc.init_gaussian(self.SPEC, self.GRID)
        amps = tc.product_state(psi, clock, self.GRID).amplitudes
        assert amps.shape == (9, self.GRID.num_points)
        np.testing.assert_allclose(amps, np.outer(np.full(9, 1.0 / 3.0), psi),
                                   rtol=1e-15, atol=0.0)

    def test_hand_orthogonal_after_tau_rotation(self):
        # rotating the uniform hand by k*tau (k not a multiple of N) gives an
        # orthogonal state: sum_n exp(-i n omega k tau) = 0
        clock = tc.ClockSpec(2.0 * math.pi / 25.0, 50)
        n = clock.modes
        for k in (1, 2, 50, 100):
            overlap = np.sum(np.exp(-1j * n * clock.omega * k * clock.tau)) / clock.n_modes
            assert abs(overlap) < 1e-12
        full_turn = np.sum(np.exp(-1j * n * clock.omega * clock.n_modes * clock.tau))
        assert full_turn == pytest.approx(clock.n_modes, abs=1e-9)

    def test_product_state_shape_and_norm(self):
        clock = tc.ClockSpec(1.0, 4)
        psi = tc.init_gaussian(self.SPEC, self.GRID)
        state = tc.product_state(psi, clock, self.GRID)
        assert state.amplitudes.shape == (9, 2**10)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(state.channel_norms(), 1.0 / 9.0, atol=1e-13)
        assert state.rows.shape == (1, 2**10)

    def test_expansion_is_read_only(self):
        # a write to the expanded channels of a factored state would be lost
        psi = tc.init_gaussian(self.SPEC, self.GRID)
        state = tc.product_state(psi, tc.ClockSpec(1.0, 4), self.GRID)
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[3, 100] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes *= 2.0
        assert np.isfinite(state.amplitudes).all()

    def test_factor_shapes_checked(self):
        clock, psi = tc.ClockSpec(1.0, 4), tc.init_gaussian(self.SPEC, self.GRID)
        with pytest.raises(ValueError, match="shapes"):
            tc.ChannelState(clock, self.GRID, np.outer(np.ones(8), psi))
        with pytest.raises(ValueError, match="shapes"):
            tc.ChannelState(clock, self.GRID, psi[None], np.ones((8, 1)))
        with pytest.raises(ValueError, match="shapes"):
            tc.ChannelState(clock, self.GRID, psi[None], np.ones((9, 2)))


class TestKinematics:
    def test_classical_tof(self):
        assert tc.classical_tof(50.0, 5.0, 1.0) == pytest.approx(10.0)
        assert tc.classical_tof(50.0, 25.0, 1.0) == pytest.approx(2.0)
        assert tc.classical_tof(10.0, 2.0, 3.0) == pytest.approx(15.0)

    def test_classical_tof_rejects_nonpositive_momentum(self):
        with pytest.raises(ValueError):
            tc.classical_tof(50.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tc.classical_tof(50.0, -5.0, 1.0)


def _fig1_config(**overrides):
    kwargs = dict(
        physical=tc.PhysicalConfig(),
        region=tc.RegionSpec(-25.0, 25.0),
        clock=tc.ClockSpec(2.0 * math.pi / 25.0, 50),
        packet=tc.WavepacketSpec(1.0, -30.0, 5.0),
        # 2^11 points: the packet's momenta, up to p0 + 8 sigma_p = 9, stay
        # below pi hbar/dx = 16.1
        grid=tc.SpatialGrid(-250.0, 150.0, 2**11),
        mode="continuous",
        t_final=25.0,
    )
    kwargs.update(overrides)
    return tc.ExperimentConfig(**kwargs)


class TestExperimentConfig:
    def test_default_dt_resolution(self):
        cfg = _fig1_config()
        expected = min(cfg.clock.tau, cfg.classical_time) / 200.0
        assert cfg.dt == pytest.approx(expected, rel=1e-15)

    def test_classical_time(self):
        assert _fig1_config().classical_time == pytest.approx(10.0)

    def test_classical_time_of_inside_packet(self):
        # a packet starting inside the region reads its arrival at x_right:
        # 25 from x0 = 0 at p0 = 25 takes 1, not the dwell time 50/25 = 2
        cfg = _fig1_config(packet=tc.WavepacketSpec(1.0, 0.0, 25.0), t_final=4.0,
                           grid=tc.SpatialGrid(-250.0, 150.0, 2**12))
        assert cfg.placement == "inside"
        assert cfg.classical_time == 1.0
        assert cfg.dt == min(cfg.clock.tau, 1.0) / 200.0
        report = validate_regime(dataclasses.replace(cfg, mode="kicked", kick_period=1.5))
        assert report.classical_time == 1.0
        assert report.kick_in_window is False  # 1.5 lies past the arrival

    def test_kicked_requires_period(self):
        with pytest.raises(ValueError):
            _fig1_config(mode="kicked")

    def test_kick_schedule(self):
        cfg = _fig1_config(mode="kicked", kick_period=1.0)
        sched = cfg.kick_schedule
        assert (sched.period, sched.n_kicks) == (1.0, 25)
        # kicks fall at T, 2T, ...: none at t = 0, and no field to ask for one
        assert cfg.kick_at_zero is False
        with pytest.raises(TypeError, match="kick_at_zero"):
            dataclasses.replace(cfg, kick_at_zero=True)

    def test_kick_period_must_fit(self):
        for T in (30.0, 0.0, -1.0):
            with pytest.raises(ValueError, match=rf"^need 0 < T <= t_final, got T={T}, "):
                _fig1_config(mode="kicked", kick_period=T)

    @pytest.mark.parametrize("mode", ["continuous", "ideal-reference"])
    def test_kick_settings_only_on_kicked_configs(self, mode):
        for T in (1.0, 30.0, -1.0):
            with pytest.raises(ValueError, match="^kick_period is for mode 'kicked' only"):
                _fig1_config(mode=mode, kick_period=T)
        assert _fig1_config(mode=mode).kick_schedule is None

    @pytest.mark.parametrize("name", ["region_mass_tol", "boundary_mass_tol"])
    def test_tolerances_not_negative(self, name):
        assert getattr(_fig1_config(**{name: 0.0}), name) == 0.0
        for value in (-1.0, -1e-300):
            with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got {value}$"):
                _fig1_config(**{name: value})

    def test_packet_must_fit_the_grid(self):
        # init_gaussian's checks, made at build time
        with pytest.raises(ValueError, match="^packet too close to left grid edge"):
            _fig1_config(packet=tc.WavepacketSpec(1.0, -242.0, 5.0))
        # p0 = 5 at 2^10 points: p0 + 8 sigma_p = 9 is not below pi hbar/dx = 8.04
        with pytest.raises(ValueError, match=r"= 9 is not below .* = 8\.04248$"):
            _fig1_config(grid=tc.SpatialGrid(-250.0, 150.0, 2**10))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            _fig1_config(mode="adiabatic")

    def test_rejects_region_outside_grid(self):
        with pytest.raises(ValueError):
            _fig1_config(region=tc.RegionSpec(-25.0, 200.0))

    def test_rejects_region_without_grid_point(self):
        # at dx = 0.195 no grid point lies in (0.01, 0.02): a clock coupled
        # there would never couple, and its readings would all be zero
        kicked = dict(mode="kicked", kick_period=1.0)
        with pytest.raises(ValueError, match=r"^coupling region \(0\.01, 0\.02\) "
                           r"holds no grid point: dx=0\.195312$"):
            _fig1_config(region=tc.RegionSpec(0.01, 0.02), **kicked)
        # one point, x = 0, is enough
        cfg = _fig1_config(region=tc.RegionSpec(0.0, 0.1), **kicked)
        assert cfg.grid.region_slice(cfg.region) == slice(1280, 1281)

    def test_rejects_packet_inside_region_for_outside_placement(self):
        # left of the region (-25, 25) the clock reads dwell times; a start
        # exactly at its left edge or right of it is not an outside start
        assert _fig1_config().placement == "outside"
        for x0 in (-25.0, 30.0):
            with pytest.raises(ValueError, match=rf"^packet must start left of the "
                               rf"region or inside it: x0={x0}, region=\(-25.0, 25.0\)$"):
                _fig1_config(packet=tc.WavepacketSpec(1.0, x0, 5.0))

    def test_inside_placement_requires_interior_start(self):
        # inside the region the clock reads arrival times; its right edge is
        # not interior
        assert _fig1_config(packet=tc.WavepacketSpec(1.0, 0.0, 5.0)).placement == "inside"
        with pytest.raises(ValueError, match=r"^packet must start left of the "
                           r"region or inside it: x0=25.0, region=\(-25.0, 25.0\)$"):
            _fig1_config(packet=tc.WavepacketSpec(1.0, 25.0, 5.0))

    def test_rejects_slow_packet(self):
        # p0 = 1, sigma = 1: 2.3% of the momentum density is negative
        with pytest.raises(ValueError):
            _fig1_config(packet=tc.WavepacketSpec(1.0, -30.0, 1.0))


def _float_fields():
    """(spec name or None for the config itself, field) for every float
    field of a kicked config with an explicit dt."""
    cfg = get_preset("fig1-kicked-T5")
    out = []
    for spec in (None, "physical", "region", "clock", "packet", "grid"):
        obj = cfg if spec is None else getattr(cfg, spec)
        out += [(spec, f.name) for f in dataclasses.fields(obj)
                if isinstance(getattr(obj, f.name), float)]
    return out


class TestNonFiniteValues:
    def test_every_float_field_is_covered(self):
        assert len(_float_fields()) == 15

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("spec, name", _float_fields())
    def test_rejected_by_name(self, spec, name, value):
        cfg = get_preset("fig1-kicked-T5")
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
            if spec is None:
                dataclasses.replace(cfg, **{name: value})
            else:
                dataclasses.replace(getattr(cfg, spec), **{name: value})


class TestRegimeReport:
    def test_fig1_continuous_marginally_invalid(self):
        # E = 12.5 sits just below pi*hbar/tau = 12.69, so the continuous
        # condition fails even before applying the dominance factor
        report = validate_regime(_fig1_config())
        assert report.energy == pytest.approx(12.5)
        tau = 25.0 / 101.0
        assert report.resolution_scale == pytest.approx(math.pi / tau, rel=1e-14)
        assert report.energy < report.resolution_scale
        assert not report.continuous_ok
        assert report.max_time_ok  # t_f = 10 < period 25
        assert report.dominance_factor == DOMINANCE_FACTOR
        assert report.kick_in_window is None and report.kicked_ok is None
        assert report.max_modular_energy is None

    def test_fig1_high_energy_valid(self):
        # 2^12 points hold p0 + 8 sigma_p = 29 below pi hbar/dx = 32.2
        report = validate_regime(_fig1_config(
            packet=tc.WavepacketSpec(1.0, -30.0, 25.0), t_final=6.0,
            grid=tc.SpatialGrid(-250.0, 150.0, 2**12)))
        assert report.energy == pytest.approx(312.5)
        assert report.continuous_ok

    def test_kick_window_bounds(self):
        # lower edge (2j+1)*tau/j = 2*pi/(j*omega); upper edge t_f
        cfg = _fig1_config(mode="kicked", kick_period=1.0)
        report = validate_regime(cfg)
        lo, hi = report.min_kick_period, report.classical_time
        assert lo == pytest.approx(2.0 * math.pi / (50.0 * cfg.clock.omega), rel=1e-13)
        assert lo == pytest.approx(0.5, rel=1e-13)
        assert hi == pytest.approx(10.0)
        assert report.kick_in_window

    def test_kick_outside_window(self):
        report = validate_regime(_fig1_config(mode="kicked", kick_period=20.0))
        assert report.kick_in_window is False

    def test_kicked_energy_condition(self):
        # the largest residue of hbar*omega*n modulo 2*pi*hbar/T over the
        # modes n = -j..j, as (omega, j, T, residue or None)
        cases = [
            # the fig1-kicked presets, omega = 2 pi/25 and T/25 = a/b: the
            # residues are the multiples of 2 pi/(25 a) below 2 pi/T, the
            # largest one step below it; a mode a whole number of turns round
            # (n = -50 at T = 0.5) has residue 0, not 2 pi/T
            (2.0 * math.pi / 25.0, 50, 0.5, 2.0 * math.pi * 49 / 25),
            (2.0 * math.pi / 25.0, 50, 1.0, 2.0 * math.pi * 24 / 25),
            (2.0 * math.pi / 25.0, 50, 2.0, 2.0 * math.pi * 12 / 25),
            (2.0 * math.pi / 25.0, 50, 5.0, 2.0 * math.pi * 4 / 25),
            # T = 25 turns every mode a whole number of times: rounding leaves
            # residues just above 0 as well as just below 2 pi/T
            (2.0 * math.pi / 25.0, 50, 25.0, 0.0),
            # [DERIVED] residue period 2*pi/T = 2, so the residue is n mod 2
            (1.0, 5, math.pi, 1.0),
            # negative n wrap up: n = -1 gives 2 - 0.1, n = 1 only 0.1
            (0.1, 1, math.pi, 1.9),
            (0.7, 20, 0.9, None),
        ]
        for omega, j, T, expected in cases:
            cfg = _fig1_config(mode="kicked", clock=tc.ClockSpec(omega, j), kick_period=T)
            report = validate_regime(cfg)
            residue_period = 2.0 * math.pi / T
            assert 0.0 <= report.max_modular_energy < residue_period
            if expected is not None:  # abs=0: a residue of 0 is exactly 0
                assert report.max_modular_energy == pytest.approx(expected, rel=1e-12, abs=0)
            # the residue of some omega*n: they differ by a multiple of 2*pi/T
            diff = (omega * cfg.clock.modes - report.max_modular_energy) / residue_period
            assert np.min(np.abs(diff - np.round(diff))) < 1e-9
            assert report.kicked_ok == (
                report.energy >= DOMINANCE_FACTOR * report.max_modular_energy)

    def test_degenerate_clock(self):
        # a one-mode clock (j = 0) has the one channel n = 0, which never
        # couples: no config of it builds, so no report is made of it
        clock = tc.ClockSpec(2.0 * math.pi / 25.0, 0)
        for kick_period, mode in [(None, "continuous"), (1.0, "kicked"),
                                  (None, "ideal-reference")]:
            with pytest.raises(ValueError, match=r"^a one-mode clock \(j = 0\) never "
                               r"couples: need j >= 1$"):
                _fig1_config(clock=clock, mode=mode, kick_period=kick_period)

    def test_report_deterministic(self):
        assert validate_regime(_fig1_config()) == validate_regime(_fig1_config())
