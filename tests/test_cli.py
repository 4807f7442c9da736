import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tofclock as tc
from tofclock import config_io, oracles, propagators
from tofclock.analysis import (
    DistributionSeries,
    distribution_distance,
    state_tof_distribution,
    theta_grid,
)
from tofclock.cli import (
    _csv_pieces,
    _write_hashed,
    cmd_compare,
    cmd_run,
    main,
    regime_warnings,
)
from tofclock.config_io import (
    ConfigError,
    emit_config,
    load_config,
    parse_config_text,
)
from tofclock.core import MODES, validate_regime
from tofclock.presets import get_preset, preset_names
from tofclock.propagators import run_experiment


def _small_config(**overrides):
    kwargs = dict(
        physical=tc.PhysicalConfig(),
        region=tc.RegionSpec(-6.0, 6.0),
        clock=tc.ClockSpec(0.9, 6),
        packet=tc.WavepacketSpec(1.0, -14.0, 5.0),
        grid=tc.SpatialGrid(-40.0, 40.0, 2**9),
        mode="kicked",
        kick_period=0.5,
        t_final=6.0,
        dt=0.02,
        region_mass_tol=1.0,
        boundary_mass_tol=1.0,
    )
    kwargs.update(overrides)
    return tc.ExperimentConfig(**kwargs)


class TestConfigIO:
    def test_round_trip_exact(self):
        for cfg in (_small_config(), get_preset("fig1-continuous"),
                    get_preset("fig1-kicked-T0.5")):
            assert parse_config_text(emit_config(cfg)) == cfg

    def test_round_trip_via_file(self, tmp_path):
        cfg = _small_config()
        path = tmp_path / "exp.cfg"
        path.write_text(emit_config(cfg), encoding="utf-8")
        assert load_config(path) == cfg

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError, match="missing mandatory"):
            parse_config_text("")

    def test_missing_mandatory_key(self):
        text = emit_config(_small_config()).replace("omega = ", "; omega = ")
        with pytest.raises(ConfigError, match="omega"):
            parse_config_text(text)

    def test_unknown_section_rejected(self):
        text = emit_config(_small_config()) + "\n[laser]\npower = 9000\n"
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text(text)

    def test_unknown_key_rejected(self):
        text = emit_config(_small_config()).replace(
            "[clock]", "[clock]\ncolor = blue"
        )
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(text)

    def test_unparseable_value(self):
        text = emit_config(_small_config()).replace(
            "t_final = 6", "t_final = six"
        )
        with pytest.raises(ConfigError, match="t_final"):
            parse_config_text(text)

    def test_invalid_physics_reported_as_config_error(self):
        cfg = _small_config()
        text = emit_config(cfg).replace("mode = kicked", "mode = sideways")
        with pytest.raises(ConfigError, match="invalid configuration"):
            parse_config_text(text)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize("key, value", [("snapshots", "20"),
                                            ("dominance_factor", "10"),
                                            ("neg_momentum_threshold", "1e-3"),
                                            ("placement", "outside"),
                                            ("kick_at_zero", "false")])
    def test_fixed_policies_are_not_keys(self, tmp_path, capsys, key, value):
        # older config.txt files carry these; their values are now constants,
        # follow from where the packet starts, or, for kicks, are at T, 2T, ...
        text = emit_config(_small_config()).replace("[run]\n", f"[run]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(text)
        path, out = tmp_path / "old.cfg", tmp_path / "out"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


@st.composite
def _configs(draw, mode, placement):
    """A valid ExperimentConfig of the given mode whose packet starts left of
    the region ("outside") or inside it ("inside")."""
    f = st.floats  # both bounds given: no nan, no infinity
    x_left, width = draw(f(-40.0, 0.0)), draw(f(0.5, 40.0))
    region = tc.RegionSpec(x_left, x_left + width)
    if placement == "outside":
        x0 = x_left - draw(f(0.1, 30.0))
    else:
        x0 = x_left + draw(f(0.01, 0.99)) * width
    t_final = draw(f(0.5, 100.0))
    kicked = mode == "kicked"
    physical = tc.PhysicalConfig(draw(f(0.1, 10.0)), draw(f(0.5, 2.0)))
    # p0 / momentum_std >= 5: negative-momentum weight below 3e-7
    packet = tc.WavepacketSpec(draw(f(0.5, 3.0)), x0, draw(f(10.0, 40.0)))
    # the packet lies more than 8 spreads inside the grid, in x and in p
    margin = 8.0 * packet.sigma
    x_min = min(x_left, x0 - margin) - draw(f(1.0, 450.0))
    x_max = max(x_left + width, x0 + margin) + draw(f(1.0, 450.0))
    p_max = packet.p0 + 8.0 * packet.momentum_std(physical.hbar)
    fit = math.ceil(math.log2((x_max - x_min) * p_max / (math.pi * physical.hbar)))
    return tc.ExperimentConfig(
        physical=physical,
        region=region,
        clock=tc.ClockSpec(draw(f(0.01, 10.0)), draw(st.integers(1, 60))),
        packet=packet,
        grid=tc.SpatialGrid(x_min, x_max, 2 ** draw(st.integers(fit + 1, fit + 3))),
        mode=mode,
        t_final=t_final,
        dt=draw(st.none() | f(1e-4, 1.0)),
        kick_period=draw(f(0.01, 1.0)) * t_final if kicked else None,
        region_mass_tol=draw(f(0.0, 1.0)),
        boundary_mass_tol=draw(f(0.0, 1.0)),
    )


class TestConfigRoundTrip:
    @pytest.mark.parametrize("placement", ["outside", "inside"])
    @pytest.mark.parametrize("mode", MODES)
    def test_emit_parse_round_trip(self, mode, placement):
        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(_configs(mode, placement))
        def check(cfg):
            assert cfg.placement == placement
            text = emit_config(cfg)
            assert parse_config_text(text) == cfg
            assert emit_config(parse_config_text(text)) == text

        check()


class TestPresets:
    def test_names_stable_and_sorted(self):
        names = preset_names()
        assert names == sorted(names)
        assert "fig1-continuous" in names
        assert "fig1-ideal" in names
        assert "fig1-high-energy" in names
        assert "fig1-kicked-T1" in names

    def test_fig1_published_parameters(self):
        cfg = get_preset("fig1-continuous")
        assert cfg.physical.m == 1.0
        assert cfg.packet == tc.WavepacketSpec(1.0, -30.0, 5.0)
        assert cfg.region == tc.RegionSpec(-25.0, 25.0)
        assert cfg.classical_time == pytest.approx(10.0)

    def test_kicked_presets_carry_period(self):
        cfg = get_preset("fig1-kicked-T2")
        assert cfg.mode == "kicked"
        assert cfg.kick_period == 2.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            get_preset("fig7-nope")

    def test_presets_are_fresh_instances(self):
        assert get_preset("fig1-continuous") is not get_preset("fig1-continuous")


def _validate_lines(capsys, preset: str) -> list[str]:
    assert main(["validate", "--preset", preset]) == 0
    return capsys.readouterr().out.splitlines()


def _regime_values(lines) -> dict[str, object]:
    """The `regime.*` lines, each value read back: a bool from True or
    False, a float from anything else."""
    values = {}
    for line in lines:
        key, _, text = line.partition(" = ")
        if key.startswith("regime."):
            values[key[7:]] = text == "True" if text in ("True", "False") else float(text)
    return values


def _pool_like(mode, p0, kick_period=None, points=2**9):
    """A small run like the benchmark's regime pool: region (-8, 8), clock
    omega = 0.8 and j = 8, 400 continuous steps; p0 > 8 needs 2^10 points."""
    t_final = 2.0 * 16.0 / p0 + 2.0
    reach = p0 * t_final + 12.0
    return tc.ExperimentConfig(
        physical=tc.PhysicalConfig(),
        region=tc.RegionSpec(-8.0, 8.0),
        clock=tc.ClockSpec(0.8, 8),
        packet=tc.WavepacketSpec(1.0, -14.0, p0),
        grid=tc.SpatialGrid(-8.0 - reach, 8.0 + reach, points),
        mode=mode,
        t_final=t_final,
        dt=t_final / 400 if mode == "continuous" else None,
        kick_period=kick_period,
        region_mass_tol=0.08,
        boundary_mass_tol=2e-2 if mode == "kicked" else 5e-4,
    )


# (mode, p0, T, points): kicks in and out of the window, with and without
# a negligible disturbance
_POOL_LIKE = {
    "kicked-low": ("kicked", 5.5, 1.5),
    "kicked-low-short": ("kicked", 6.2, 0.45),
    "kicked-high": ("kicked", 12.0, 1.2, 2**10),
    "continuous-low": ("continuous", 6.0),
    "ideal-high": ("ideal-reference", 12.5, None, 2**10),
}


class TestRegimeText:
    def test_continuous_verdicts(self, capsys):
        lines = _validate_lines(capsys, "fig1-continuous")
        assert "regime.continuous_ok = False" in lines  # E = 12.5 < pi*hbar/tau
        assert "regime.max_time_ok = True" in lines  # t_f = 10 < period 25

    def test_kicked_verdicts(self, capsys):
        # T = 1 lies in the window (2j+1)*tau/j = 0.5 < T < t_f = 10
        lines = _validate_lines(capsys, "fig1-kicked-T1")
        assert "regime.kick_in_window = True" in lines
        assert "regime.min_kick_period = 0.49999999999999994" in lines
        assert "regime.classical_time = 10" in lines
        # a run without kicks has no kick verdicts
        assert not any(line.startswith(("regime.kick_in_window", "regime.kicked_ok"))
                       for line in _validate_lines(capsys, "fig1-continuous"))

    def test_warnings(self):
        def warnings(cfg):
            return regime_warnings(validate_regime(cfg))

        assert warnings(get_preset("fig1-continuous")) == ["regime.continuous_ok = False"]
        assert warnings(get_preset("fig1-high-energy")) == []
        # T = 20 lies past t_f = 10, and at T = 1 the largest kick residue,
        # 6.03, is not << E = 12.5; T = 5's, 1.005, is
        late = dataclasses.replace(get_preset("fig1-kicked-T1"), kick_period=20.0)
        assert warnings(late) == ["regime.kick_in_window = False"]
        assert warnings(get_preset("fig1-kicked-T1")) == ["regime.kicked_ok = False"]
        assert warnings(get_preset("fig1-kicked-T5")) == []


class TestRegimeLines:
    @pytest.mark.parametrize("preset", [p for p in preset_names() if p.startswith("fig1-")])
    def test_preset_lines_read_back_bitwise(self, capsys, preset):
        report = validate_regime(get_preset(preset))
        fields = {k: v for k, v in dataclasses.asdict(report).items() if v is not None}
        values = _regime_values(_validate_lines(capsys, preset))
        assert list(values) == list(fields)
        assert ("continuous_ok" in values) == (get_preset(preset).mode == "continuous")
        for key, value in fields.items():
            assert type(values[key]) is type(value), key
            assert np.float64(values[key]).tobytes() == np.float64(value).tobytes(), key

    @pytest.mark.parametrize("name", _POOL_LIKE)
    def test_manifest_lines_read_back_bitwise(self, tmp_path, name):
        # the manifest's regime.* lines, read back, are the report's fields
        # that apply
        cfg = _pool_like(*_POOL_LIKE[name])
        out = cmd_run(cfg, tmp_path / name, workers=1)
        values = _regime_values((out / "manifest.txt").read_text(encoding="utf-8").splitlines())
        report = dataclasses.asdict(validate_regime(cfg))
        assert values == {k: v for k, v in report.items() if v is not None}
        for key, value in values.items():
            assert type(value) is type(report[key])
            assert np.float64(value).tobytes() == np.float64(report[key]).tobytes(), key
        assert "min_kick_period" in values
        assert ("kicked_ok" in values) == (cfg.mode == "kicked")
        assert ("continuous_ok" in values) == (cfg.mode == "continuous")

    @pytest.mark.parametrize("name", _POOL_LIKE)
    def test_failing_verdicts_are_the_warnings(self, tmp_path, capsys, name):
        # stderr warns with each manifest line whose verdict fails, and the
        # manifest holds no other warning
        out = cmd_run(_pool_like(*_POOL_LIKE[name]), tmp_path / name, workers=1)
        manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
        failing = [line for line in manifest if line.startswith("regime.")
                   and line.endswith(("_ok = False", "_window = False"))]
        assert capsys.readouterr().err.splitlines() == [f"warning: {line}" for line in failing]
        assert not any(line.startswith("warning") for line in manifest)

    @pytest.mark.parametrize("name", _POOL_LIKE)
    def test_validate_prints_the_manifest_lines(self, tmp_path, capsys, name):
        cfg = _pool_like(*_POOL_LIKE[name])
        path = tmp_path / "exp.cfg"
        path.write_text(emit_config(cfg), encoding="utf-8")
        out = cmd_run(cfg, tmp_path / name, workers=1)
        capsys.readouterr()
        assert main(["validate", "--config", str(path)]) == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines(True)
        assert capsys.readouterr().out == "".join(
            line for line in manifest if line.startswith("regime."))


def _per_value_csv(header, columns):
    """Reference rendering of a CSV table: one ``.17g`` format call per value."""
    lines = [",".join(header) + "\n"]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines).encode("utf-8")


_CSV_EDGE_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                    2.2250738585072009e-308, 1e300, -1e300, 1e-300, -1e-300]


@st.composite
def _csv_tables(draw):
    cols = draw(st.sampled_from([1, 3, 101]))
    rows = draw(st.integers(0, 6 if cols == 101 else 40))
    table = draw(arrays(np.float64, (rows, cols), elements=st.one_of(
        st.sampled_from(_CSV_EDGE_VALUES), st.floats(allow_subnormal=True))))
    return [f"c{k}" for k in range(cols)], [table[:, k].copy() for k in range(cols)]


def _check_table(path, header, columns):
    """The written table, its digest and its pieces' text all equal the
    per-value rendering; returns the number of pieces."""
    expected = _per_value_csv(header, columns)
    digest = _write_hashed(path, _csv_pieces(header, columns))
    assert path.read_bytes() == expected
    assert digest == hashlib.sha256(expected).hexdigest()
    pieces = list(_csv_pieces(header, columns))
    assert "".join(pieces).encode("utf-8") == expected
    return len(pieces)


class TestCsvOutput:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_csv_tables())
    def test_bytes_match_per_value_formatting(self, tmp_path_factory, table):
        header, columns = table
        _check_table(tmp_path_factory.mktemp("csv") / "table.csv", header, columns)

    @pytest.mark.parametrize("rows, cols, pieces", [(1500, 3, 3), (100, 101, 4), (0, 3, 1)])
    def test_tables_spanning_pieces(self, tmp_path, rows, cols, pieces):
        # the header, then pieces of 4096 // cols rows: 1365 and 135 rows
        # of 3 columns, 40, 40 and 20 of 101; a header-only table is one piece
        rng = np.random.default_rng(rows + cols)
        values = np.concatenate([_CSV_EDGE_VALUES,
                                 rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)])
        table = rng.choice(values, size=(rows, cols))
        header = [f"c{k}" for k in range(cols)]
        columns = [table[:, k].copy() for k in range(cols)]
        assert _check_table(tmp_path / "table.csv", header, columns) == pieces


class TestCmdRun:
    def test_outputs(self, tmp_path):
        out = cmd_run(_small_config(), tmp_path / "run", label="small")
        assert sorted(path.name for path in out.iterdir()) == [
            "config.txt", "manifest.txt", "tof_density.csv"]
        data = np.loadtxt(out / "tof_density.csv", delimiter=",", skiprows=1)
        assert data.shape == (1025, 3)
        mass = np.trapezoid(data[:, 1], data[:, 0])
        assert mass == pytest.approx(1.0, abs=1e-6)
        manifest = (out / "manifest.txt").read_text()
        assert "label = small" in manifest
        assert "diag.norm_drift" in manifest
        assert "transmission.right" in manifest

    def test_manifest_records_resolved_workers(self, tmp_path):
        default = cmd_run(_small_config(), tmp_path / "default")
        cores = len(os.sched_getaffinity(0))
        assert f"workers = {cores}\n" in (default / "manifest.txt").read_text()
        three = cmd_run(_small_config(), tmp_path / "three", workers=3)
        assert "workers = 3\n" in (three / "manifest.txt").read_text()

    def test_manifest_checksums_match(self, tmp_path):
        out = cmd_run(_small_config(), tmp_path / "run")
        manifest = dict(
            line.split(" = ", 1)
            for line in (out / "manifest.txt").read_text().splitlines()
            if " = " in line
        )
        for name in ("tof_density.csv", "config.txt"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert manifest[f"file.{name}"] == digest

    def test_config_round_trips_from_run_dir(self, tmp_path):
        cfg = _small_config()
        out = cmd_run(cfg, tmp_path / "run")
        assert load_config(out / "config.txt") == cfg

    def test_ideal_reference_output(self, tmp_path):
        cfg = _small_config(mode="ideal-reference", kick_period=None)
        out = cmd_run(cfg, tmp_path / "ideal")
        assert (out / "ideal_dwell.csv").exists()
        assert not (out / "tof_density.csv").exists()

    def test_ideal_and_clock_runs_share_time_grid(self, tmp_path):
        clock = cmd_run(_small_config(), tmp_path / "clock")
        ideal = cmd_run(_small_config(mode="ideal-reference", kick_period=None),
                        tmp_path / "ideal")

        def t_column(path):
            return [line.split(",", 1)[0] for line in path.read_text().splitlines()]

        t = t_column(ideal / "ideal_dwell.csv")
        assert len(t) == 1026
        assert t == t_column(clock / "tof_density.csv")

    @pytest.mark.parametrize("mode", ["kicked", "ideal-reference"])
    def test_large_clock_reads_on_its_nyquist_grid(self, tmp_path, mode):
        # 1201 modes: the reading grid grows from 1024 to 2 * 1201 intervals
        cfg = _small_config(clock=tc.ClockSpec(0.9, 600), mode=mode,
                            kick_period=0.5 if mode == "kicked" else None)
        out = cmd_run(cfg, tmp_path / "run", workers=1)
        assert "\ntheta_points = 2402\n" in (out / "manifest.txt").read_text()
        name = "tof_density.csv" if mode == "kicked" else "ideal_dwell.csv"
        data = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert data.shape == (2403, 3)
        assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-4)

    def test_deterministic_outputs(self, tmp_path):
        cfg = _small_config()
        a = cmd_run(cfg, tmp_path / "a")
        b = cmd_run(cfg, tmp_path / "b")
        for name in ("tof_density.csv", "config.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # fig1-kicked-T1 ends on its tick stack; at 2^12 points its norm
        # guard differed between one and two OpenBLAS threads when it was a
        # BLAS dot product, and so did the manifest's diag.norm_drift
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in str(blas.get("name")).lower():
            pytest.skip(f"numpy's BLAS is {blas.get('name')}, not OpenBLAS")
        code = ("import dataclasses, sys\n"
                "from tofclock import cli, core, presets\n"
                "cfg = dataclasses.replace(presets.get_preset('fig1-kicked-T1'),\n"
                "                          grid=core.SpatialGrid(-250.0, 150.0, 2**12))\n"
                "cli.cmd_run(cfg, sys.argv[1], workers=2, label='fig1-kicked-T1')\n")
        runs = [tmp_path / "blas1", tmp_path / "blas2"]
        for threads, out in zip("12", runs):
            env = dict(os.environ, PYTHONPATH=str(Path(tc.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True,
                           capture_output=True)
        names = sorted(path.name for path in runs[0].iterdir())
        assert names == sorted(path.name for path in runs[1].iterdir())
        for name in names:
            assert (_without_wall_time((runs[0] / name).read_bytes())
                    == _without_wall_time((runs[1] / name).read_bytes())), name

    @pytest.mark.parametrize("mode", ["kicked", "ideal-reference"])
    def test_table_equals_streamed_lines(self, tmp_path, mode):
        cfg = _small_config(mode=mode, kick_period=0.5 if mode == "kicked" else None)
        out = cmd_run(cfg, tmp_path / "run", workers=1)
        if mode == "kicked":
            final_state = run_experiment(cfg, workers=1).final_state
            name, series = "tof_density.csv", state_tof_distribution(final_state)
        else:
            times = theta_grid(cfg.clock) / cfg.clock.omega
            name, series = "ideal_dwell.csv", oracles.ideal_dwell(
                cfg.packet, cfg.region, cfg.physical.m, times, hbar=cfg.physical.hbar)
        want = "".join(_csv_pieces(["t", "density", "cdf"],
                                   [series.times, series.density, series.cdf]))
        assert (out / name).read_text(encoding="utf-8") == want


class TestCmdCompare:
    def test_distances_and_alignment(self, tmp_path):
        a = cmd_run(_small_config(), tmp_path / "a", label="a")
        b = cmd_run(_small_config(kick_period=1.0), tmp_path / "b", label="b")
        out = cmd_compare([a, b], tmp_path / "cmp")
        table = (out / "distances.csv").read_text().splitlines()
        assert table[0] == "a,b,sup_cdf,l1_density"
        fields = table[1].split(",")
        assert float(fields[2]) > 0.0
        cdf = np.loadtxt(out / "compare_cdf.csv", delimiter=",", skiprows=1)
        assert cdf.shape == (1025, 3)

    def test_identical_runs_zero_distance(self, tmp_path):
        a = cmd_run(_small_config(), tmp_path / "a")
        b = cmd_run(_small_config(), tmp_path / "b")
        out = cmd_compare([a, b], tmp_path / "cmp")
        line = (out / "distances.csv").read_text().splitlines()[1]
        assert line.endswith(",0,0")

    @pytest.mark.parametrize("first, second", [
        ("kicked", "ideal-reference"), ("ideal-reference", "kicked"),
    ])
    def test_reused_run_directory_holds_one_table(self, tmp_path, first, second):
        # a run into another mode's run directory leaves its own table only,
        # so compare reads that run and not the stale one
        def config(mode):
            return _small_config(mode=mode, kick_period=0.5 if mode == "kicked" else None)

        reused = cmd_run(config(first), tmp_path / "reused")
        cmd_run(config(second), reused)
        fresh = cmd_run(config(second), tmp_path / "fresh")
        tables = [path.name for path in reused.glob("*.csv")]
        assert tables == [path.name for path in fresh.glob("*.csv")]
        assert len(tables) == 1
        out = cmd_compare([reused, fresh], tmp_path / "cmp")
        assert (out / "distances.csv").read_text().splitlines()[1].endswith(",0,0")

    def test_needs_two_runs(self, tmp_path):
        a = cmd_run(_small_config(), tmp_path / "a")
        with pytest.raises(ValueError):
            cmd_compare([a], tmp_path / "cmp")

    def test_rejects_mismatched_grids(self, tmp_path):
        a = cmd_run(_small_config(), tmp_path / "a")
        b = cmd_run(_small_config(clock=tc.ClockSpec(0.7, 6)), tmp_path / "b")
        with pytest.raises(ValueError, match="time grid"):
            cmd_compare([a, b], tmp_path / "cmp")
        assert not (tmp_path / "cmp").exists()

    def test_rows_equal_distribution_distance(self, tmp_path):
        # enough pairs that a kernel summing in another order changes a bit,
        # and enough runs that the first ones span several partner blocks
        configs = dict(
            a=_small_config(),
            b=_small_config(kick_period=1.0),
            c=_small_config(),  # same as a
            d=_small_config(mode="ideal-reference", kick_period=None),
            e=_small_config(mode="continuous", kick_period=None),
            f=_small_config(kick_period=0.7),
            g=_small_config(kick_period=0.3),
        )
        runs = [cmd_run(cfg, tmp_path / name) for name, cfg in configs.items()]

        def load(run):
            name = "ideal_dwell.csv" if run.name == "d" else "tof_density.csv"
            data = np.loadtxt(run / name, delimiter=",", skiprows=1)
            return DistributionSeries(data[:, 0], data[:, 1], data[:, 2])

        # mixtures of the real runs, one more directory each
        real = [load(run) for run in runs]
        times = real[0].times
        rng = np.random.default_rng(7)
        for k in range(36):
            density = rng.dirichlet(np.ones(len(real))) @ [s.density for s in real]
            run = tmp_path / f"mix{k:02d}"
            run.mkdir()
            _write_hashed(run / "tof_density.csv", _csv_pieces(
                ["t", "density", "cdf"],
                [times, density, DistributionSeries.from_density(times, density).cdf]))
            runs.append(run)
        assert len(runs) == 43
        series = [load(run) for run in runs]
        expected = ["a,b,sup_cdf,l1_density"]
        for i, a in enumerate(series):
            for k, b in enumerate(series[i + 1:], start=i + 1):
                sup_cdf, l1 = distribution_distance(a, b)
                expected.append(f"{runs[i].name},{runs[k].name},{sup_cdf:.17g},{l1:.17g}")
        out = cmd_compare(runs, tmp_path / "cmp")
        assert (out / "distances.csv").read_text().splitlines() == expected
        assert "a,c,0,0" in expected

    @pytest.mark.parametrize("table", [
        "t,density,cdf\n",
        "t,density,cdf\n0,0.5,0\n",
        "t,density\n0,0.5\n1,0.5\n",
        "t,density,cdf,extra\n0,0.5,0,1\n1,0.5,0.5,1\n",
        # the good run's table, one value replaced: the grids match
        (2, 1, "nan"),
        (-1, 0, "inf"),
        (2, 1, "abc"),
        "t,density,cdf\n0,0.5,0\n1,0.5\n",
        "t,density,cdf\n1,0.5,0\n0.5,0.5,0.25\n0,0.5,0.5\n",
    ], ids=["header-only", "one-row", "two-columns", "four-columns", "nan-density", "inf-t",
            "text-density", "ragged-row", "decreasing-t"])
    def test_rejects_malformed_table(self, tmp_path, capsys, table):
        good = cmd_run(_small_config(), tmp_path / "good")
        bad = tmp_path / "bad"
        bad.mkdir()
        if isinstance(table, tuple):
            row, column, value = table
            lines = (good / "tof_density.csv").read_text(encoding="utf-8").splitlines()
            fields = lines[row].split(",")
            fields[column] = value
            lines[row] = ",".join(fields)
            table = "\n".join(lines) + "\n"
        (bad / "tof_density.csv").write_text(table, encoding="utf-8")
        out = tmp_path / "cmp"
        assert main(["compare", str(good), str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad / 'tof_density.csv'} holds" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cwd, args", [
        ("a", [".", "../b"]), ("a/inner", ["..", "../../b"]), (".", ["link", "b"]),
    ], ids=["dot", "dotdot", "symlink"])
    def test_labels_are_the_directories_names(self, tmp_path, monkeypatch, cwd, args):
        # "." and ".." label the directories they name; a symlink keeps its own
        cmd_run(_small_config(), tmp_path / "a")
        cmd_run(_small_config(kick_period=1.0), tmp_path / "b")
        (tmp_path / "a" / "inner").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "a")
        monkeypatch.chdir(tmp_path / cwd)
        assert main(["compare", *args, "--out", str(tmp_path / "cmp")]) == 0
        first = "link" if "link" in args else "a"
        assert (tmp_path / "cmp" / "compare_cdf.csv").read_text().startswith(f"t,{first},b\n")
        row = (tmp_path / "cmp" / "distances.csv").read_text().splitlines()[1]
        assert row.startswith(f"{first},b,")

    @pytest.mark.parametrize("name", ["T=1,j=50", "line\nbreak", "carriage\rreturn"])
    def test_rejects_comma_or_line_break_in_name(self, tmp_path, capsys, name):
        # either would break both tables' rows
        good = cmd_run(_small_config(), tmp_path / "good")
        bad = cmd_run(_small_config(), tmp_path / name)
        out = tmp_path / "cmp"
        assert main(["compare", str(good), str(bad), "--out", str(out)]) == 2
        assert f"line break: {str(bad)!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_repeated_directory_names(self, tmp_path, capsys):
        x = cmd_run(_small_config(), tmp_path / "x" / "run")
        y = cmd_run(_small_config(kick_period=1.0), tmp_path / "y" / "run")
        z = cmd_run(_small_config(), tmp_path / "z")
        out = tmp_path / "cmp"
        assert main(["compare", str(x), str(z), str(y), "--out", str(out)]) == 2
        assert "unique; repeated: run" in capsys.readouterr().err
        assert not out.exists()


def _edited_preset(name: str, **values: str) -> str:
    """A preset's config text with each `key = value` line set, or added
    to [run]: a config file that may not build."""
    text = emit_config(get_preset(name))
    for key, value in values.items():
        text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
        if not found:
            text = text.replace("[run]\n", f"[run]\n{key} = {value}\n")
    return text


def _without_wall_time(manifest: bytes) -> bytes:
    return b"".join(line for line in manifest.splitlines(keepends=True)
                    if not line.startswith(b"wall_time_s = "))


class TestMain:
    def test_preset_list(self, capsys):
        assert main(["preset", "list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == preset_names()

    def test_validate_preset(self, capsys):
        assert main(["validate", "--preset", "fig1-continuous"]) == 0
        assert "regime.energy = 12.5\n" in capsys.readouterr().out

    def test_validate_config_file(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(emit_config(_small_config()), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 0
        assert "\nregime.kick_in_window = " in capsys.readouterr().out

    def test_run_with_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(emit_config(_small_config()), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "manifest.txt").exists()

    @pytest.mark.parametrize("stem", ["x\nfile.config.txt = 0", "x\rfile.config.txt = 0"],
                             ids=["LF", "CR"])
    def test_label_with_a_line_break_exits_two(self, tmp_path, capsys, monkeypatch, stem):
        # the label is the config file's stem, written as the manifest's
        # label line: a line break in it would forge a file.* digest line
        path = tmp_path / f"{stem}.cfg"
        path.write_text(emit_config(_small_config()), encoding="utf-8")

        def no_run(*args, **kwargs):
            raise AssertionError("propagated a run whose label breaks a line")

        monkeypatch.setattr("tofclock.cli.run_experiment", no_run)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: a run label must hold no line break: {stem!r}\n")
        assert not out.exists()

    def test_failed_propagation_exits_one(self, tmp_path, capsys):
        # boundary mass reaches ~2e-6 at t = 2.5 on this config
        path = tmp_path / "leak.cfg"
        path.write_text(emit_config(_small_config(boundary_mass_tol=1e-6)),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert "error: boundary occupancy" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_blocked_by_a_file_exits_two(self, tmp_path, capsys, monkeypatch,
                                             command, under):
        runs = [str(cmd_run(_small_config(), tmp_path / name)) for name in ("a", "b")]
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n", encoding="utf-8")
        out = blocker / "sub" if under else blocker
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()

        def no_run(*args, **kwargs):
            raise AssertionError("propagated into a blocked run directory")

        monkeypatch.setattr("tofclock.cli.run_experiment", no_run)
        argv = (["run", "--preset", "fig1-kicked-T5"] if command == "run"
                else ["compare", *runs])
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text(encoding="utf-8") == "kept\n"

    def test_one_parser_per_process_keeps_calls_apart(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(emit_config(_small_config()), encoding="utf-8")
        run = ["run", "--config", str(path), "--out"]
        assert main([*run, str(tmp_path / "one"), "--workers", "1"]) == 0
        assert main([*run, str(tmp_path / "plain")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["run", "--workers", "many"])
        assert exc.value.code == 2
        assert main([*run, str(tmp_path / "after_error")]) == 0
        default = propagators.resolve_workers(None)
        for out, workers in (("one", 1), ("plain", default), ("after_error", default)):
            manifest = (tmp_path / out / "manifest.txt").read_text(encoding="utf-8")
            assert f"\nworkers = {workers}\n" in manifest

        env = dict(os.environ, PYTHONPATH=str(Path(tc.__file__).parents[1]))
        for out, flag in (("one", ["--workers", "1"]), ("plain", [])):
            fresh = tmp_path / f"fresh_{out}"
            subprocess.run([sys.executable, "-m", "tofclock.cli", *run, str(fresh),
                            *flag], check=True, env=env, capture_output=True)
            for name in ("tof_density.csv", "config.txt", "manifest.txt"):
                want = _without_wall_time((fresh / name).read_bytes())
                assert _without_wall_time((tmp_path / out / name).read_bytes()) == want
                if out == "plain":
                    got = (tmp_path / "after_error" / name).read_bytes()
                    assert _without_wall_time(got) == want

    def test_run_path_needs_no_scipy(self, tmp_path):
        # validate, run and compare import numpy alone: in an interpreter
        # where every scipy import fails they exit 0 and write the bytes of
        # the same calls made here
        presets = ("fig1-kicked-T5", "fig1-ideal")

        def calls(root: Path) -> list[list[str]]:
            return ([["validate", "--preset", p] for p in presets]
                    + [["run", "--preset", p, "--out", str(root / p)] for p in presets]
                    + [["compare", *(str(root / p) for p in presets),
                        "--out", str(root / "cmp")]])

        here, fresh = tmp_path / "here", tmp_path / "fresh"
        assert [main(argv) for argv in calls(here)] == [0] * 5
        code = ("import json, sys\n"
                "sys.modules['scipy'] = None  # any import of scipy raises\n"
                "from tofclock.cli import main\n"
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                "sys.exit(f'exit codes {codes}' if any(codes) else 0)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(tc.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code, json.dumps(calls(fresh))],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        files = sorted(path.relative_to(here) for path in here.rglob("*") if path.is_file())
        assert files == sorted(path.relative_to(fresh) for path in fresh.rglob("*")
                               if path.is_file())
        for name in files:
            assert (_without_wall_time((fresh / name).read_bytes())
                    == _without_wall_time((here / name).read_bytes())), name

    def test_unresolved_packet_exits_two(self, tmp_path, capsys):
        # p0 = 40 at 2^12 points: the packet's momenta reach past pi hbar/dx
        text = _edited_preset("fig1-high-energy", p0="40", num_points="4096")
        path = tmp_path / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sigma_p = 44 is not below the grid's largest momentum " in err
        assert "pi*hbar/dx = 32.1699" in err
        assert not out.exists()
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("preset, edits, message", [
        ("fig1-ideal", dict(kick_period="30"),
         "kick_period is for mode 'kicked' only, not 'ideal-reference'"),
        ("fig1-continuous", dict(kick_period="1"),
         "kick_period is for mode 'kicked' only, not 'continuous'"),
        ("fig1-kicked-T5", dict(num_points="2048", boundary_mass_tol="-1"),
         "boundary_mass_tol must be >= 0, got -1.0"),
        ("fig1-kicked-T1", dict(num_points="2048", x_left="0.01", x_right="0.02"),
         "coupling region (0.01, 0.02) holds no grid point: dx=0.195312"),
        ("fig1-kicked-T1", dict(j="0"), "a one-mode clock (j = 0) never couples: need j >= 1"),
    ], ids=["ideal-kick-period", "continuous-kicks", "negative-tol", "empty-region",
            "one-mode"])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, monkeypatch,
                                               preset, edits, message):
        path = tmp_path / "exp.cfg"
        path.write_text(_edited_preset(preset, **edits), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid configuration: {message}\n"

        def no_run(*args, **kwargs):
            raise AssertionError("propagated a config that validate rejects")

        monkeypatch.setattr("tofclock.cli.run_experiment", no_run)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == captured.err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--theta-points", "2048"], ["--kick-at-zero"]])
    def test_removed_run_options_exit_two(self, tmp_path, option):
        # the reading grid follows from the clock, and no run kicks at t = 0
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "fig1-ideal", "--out", str(out), *option])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("key", [
        key for section in config_io._SCHEMA.values()
        for key, (typ, _) in section.items() if typ is float
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_config_value_exits_two(self, tmp_path, capsys, key, value):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", emit_config(_small_config()),
                      flags=re.MULTILINE)
        assert f"{key} = {value}\n" in text
        path = tmp_path / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"] {key}: '{value}' is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_exit_two(self, tmp_path, capsys, workers):
        path = tmp_path / "exp.cfg"
        path.write_text(emit_config(_small_config()), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["run", "--config", str(path), "--out", str(out), "--workers", workers]
        assert main(argv) == 2
        assert "error: workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_exits_nonzero(self, capsys):
        assert main(["validate", "--preset", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_and_preset_conflict(self, capsys):
        assert main(["validate", "--config", "x.cfg", "--preset", "fig1-continuous"]) == 2

    def test_missing_source(self, capsys):
        assert main(["validate"]) == 2

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nmode = kicked\n", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
