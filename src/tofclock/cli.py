"""Command-line interface: run experiments, compare runs, validate regimes.

Subcommands:
  run       execute one experiment and emit plot-ready CSV data + manifest
  compare   align completed runs and tabulate distribution distances
  validate  print the regime report for a configuration
  preset    list the built-in scenario presets
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import os
import sys
import time
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import analysis, oracles
from .config_io import ConfigError, emit_config, key_value_lines, load_config
from .core import ExperimentConfig, RegimeReport, validate_regime
from .presets import IMPLEMENTATION_CHOICE_NOTE, get_preset, preset_names
from .propagators import PropagationError, resolve_workers, run_experiment


def _regime_entries(report: RegimeReport) -> list[tuple[str, object]]:
    """`regime.<field>` and its value for each field of `report` that applies."""
    return [(f"regime.{k}", v) for k, v in dataclasses.asdict(report).items() if v is not None]


def regime_warnings(report: RegimeReport) -> list[str]:
    """The `regime.*` lines of `report` whose verdict is False."""
    failing = ((k, v) for k, v in _regime_entries(report) if v is False)
    return key_value_lines(failing).splitlines()


_PIECE_VALUES = 4096  # values a CSV piece formats at once; bounds the text held


def _csv_pieces(header: list[str], columns: list[np.ndarray]) -> Iterator[str]:
    """A CSV table, every value as ``%.17g``: the header line, then the rows
    in pieces of at most `_PIECE_VALUES` values (or one row), one ``%`` each."""
    yield ",".join(header) + "\n"
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = max(1, _PIECE_VALUES // len(columns))
    for lo in range(0, len(table), rows):
        piece = table[lo:lo + rows]
        yield (line * len(piece)) % tuple(piece.ravel().tolist())


def _write_hashed(path: Path, pieces: Iterable[str]) -> str:
    """Write the text `pieces` as UTF-8 and return the SHA-256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in (piece.encode("utf-8") for piece in pieces):
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


_TABLES = ("tof_density.csv", "ideal_dwell.csv")  # a run writes one of them


def cmd_run(
    config: ExperimentConfig,
    out_dir: Path,
    workers: int | None = None,
    label: str = "",
) -> Path:
    if set(label) & set("\r\n"):  # it would forge manifest lines
        raise ValueError(f"a run label must hold no line break: {label!r}")
    workers = resolve_workers(workers)
    out_dir = Path(out_dir)
    # a file in the way fails now, not after the propagation
    for path in (out_dir, *out_dir.parents):
        if path.exists() and not path.is_dir():
            raise NotADirectoryError(f"run directory {out_dir}: {path} is not a directory")
    report = validate_regime(config)
    if config.mode == "ideal-reference":
        t0 = time.perf_counter()
        series = oracles.ideal_reading(config)
        data_name, clock_lines, wall_time = "ideal_dwell.csv", [], time.perf_counter() - t0
    else:
        result = run_experiment(config, workers=workers)
        series = analysis.state_tof_distribution(result.final_state)
        trans = analysis.transmission_report(result.final_state, config.region)
        data_name, wall_time = "tof_density.csv", result.wall_time
        clock_lines = [
            ("diag.norm_drift", result.norm_drift),
            ("diag.max_channel_drift", result.max_channel_drift),
            ("diag.region_mass_final", result.region_mass_final),
            ("diag.boundary_mass_final", result.boundary_mass_final),
            ("transmission.left", trans.total_left),
            ("transmission.inside", trans.total_inside),
            ("transmission.right", trans.total_right),
        ]
    # made only now, so that a failed run leaves no empty run directory
    out_dir.mkdir(parents=True, exist_ok=True)
    for other in set(_TABLES) - {data_name}:  # a reused run directory keeps one table
        (out_dir / other).unlink(missing_ok=True)
    manifest: list[tuple[str, object]] = [
        ("label", label or config.mode),
        ("mode", config.mode),
        ("theta_points", series.times.size - 1),
        ("workers", workers),
        ("note.parameters", IMPLEMENTATION_CHOICE_NOTE),
    ]
    digests: dict[str, str] = {}  # SHA-256 of each data file, in manifest order
    digests[data_name] = _write_hashed(out_dir / data_name, _csv_pieces(
        ["t", "density", "cdf"], [series.times, series.density, series.cdf]))
    manifest.append((f"mass.{data_name}", series.total_mass))
    manifest += clock_lines

    digests["config.txt"] = _write_hashed(out_dir / "config.txt", [emit_config(config)])

    manifest += _regime_entries(report)
    manifest.append(("wall_time_s", f"{wall_time:.6f}"))
    manifest += [(f"file.{name}", digest) for name, digest in digests.items()]
    (out_dir / "manifest.txt").write_text(key_value_lines(manifest), encoding="utf-8")

    for line in regime_warnings(report):
        print(f"warning: {line}", file=sys.stderr)
    print(f"run complete: {out_dir}")
    return out_dir


def _load_run_series(run_dir: Path) -> analysis.DistributionSeries:
    for name in _TABLES:
        path = run_dir / name
        if path.exists():
            with warnings.catch_warnings():  # an empty table is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                except ValueError as exc:  # a value or a row it cannot read
                    raise ValueError(f"{path} holds no table of numbers: {exc}") from None
            if data.shape[0] < 2 or data.shape[1] != 3:
                raise ValueError(f"{path} holds {data.shape[0]} rows of {data.shape[1]} "
                                 "columns; need t,density,cdf on at least two rows")
            if not np.isfinite(data).all():
                raise ValueError(f"{path} holds a value that is not finite")
            if not (np.diff(data[:, 0]) > 0).all():
                raise ValueError(f"{path} holds a t column that does not increase")
            return analysis.DistributionSeries(data[:, 0], data[:, 1], data[:, 2])
    raise FileNotFoundError(f"no distribution data in {run_dir}")


def cmd_compare(run_dirs: list[Path], out_dir: Path) -> Path:
    if len(run_dirs) < 2:
        raise ValueError("compare needs at least two completed runs")
    run_dirs = [Path(d) for d in run_dirs]
    # the runs' labels in both tables: the last part of each absolute path,
    # so "." and ".." read as the directories they name
    names = [Path(os.path.abspath(d)).name for d in run_dirs]
    for d, name in zip(run_dirs, names):
        if set(name) & set(",\r\n"):
            raise ValueError("compare labels runs by directory name, which must "
                             f"hold no comma or line break: {str(d)!r}")
    shared = sorted(n for n, k in Counter(names).items() if k > 1)
    if shared:
        raise ValueError("compare labels runs by directory name, which must be "
                         f"unique; repeated: {', '.join(shared)}")
    series = [_load_run_series(d) for d in run_dirs]
    for name, s in zip(names[1:], series[1:]):
        if not analysis.same_grid(series[0], s):
            raise ValueError(f"time grid of {name} does not match {names[0]}")
    times = series[0].times
    cdfs = np.array([s.cdf for s in series])
    densities = np.array([s.density for s in series])
    del series  # the stacks hold every value both tables need
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_hashed(out_dir / "compare_cdf.csv", _csv_pieces(["t"] + names, [times, *cdfs]))

    with open(out_dir / "distances.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("a,b,sup_cdf,l1_density\n")
        for i, name in enumerate(names[:-1]):
            a = analysis.DistributionSeries(times, densities[i], cdfs[i])
            sup_cdf, l1 = analysis.stack_distance(a, cdfs[i + 1:], densities[i + 1:])
            fh.writelines(f"{name},{b},{sup:.17g},{dist:.17g}\n"
                          for b, sup, dist in zip(names[i + 1:], sup_cdf.tolist(), l1.tolist()))
    print(f"comparison written: {out_dir}")
    return out_dir


def cmd_validate(config: ExperimentConfig) -> None:
    sys.stdout.write(key_value_lines(_regime_entries(validate_regime(config))))


def _resolve_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigError("use either --config or --preset, not both")
    if args.config:
        return load_config(args.config)
    if args.preset:
        return get_preset(args.preset)
    raise ConfigError("one of --config or --preset is required")


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tofclock",
        description="Quantum time-of-flight measurements with continuous "
        "and kicked clocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", type=Path, help="configuration file")
        p.add_argument("--preset", help="built-in scenario name")

    run = sub.add_parser("run", help="execute one experiment")
    add_config_args(run)
    run.add_argument("--out", type=Path, default=Path("tofclock_run"))
    run.add_argument("--workers", type=int, default=None,
                     help="clock-channel blocks propagated in parallel "
                     "(default: every available core); outputs do not depend on it")

    cmp_p = sub.add_parser("compare", help="compare completed runs")
    cmp_p.add_argument("run_dirs", nargs="+", type=Path)
    cmp_p.add_argument("--out", type=Path, default=Path("tofclock_compare"))

    val = sub.add_parser("validate", help="print the regime report")
    add_config_args(val)

    pre = sub.add_parser("preset", help="preset utilities")
    pre.add_argument("action", choices=["list"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            label = args.preset or (args.config.stem if args.config else "")
            cmd_run(_resolve_config(args), args.out, workers=args.workers, label=label)
        elif args.command == "compare":
            cmd_compare(args.run_dirs, args.out)
        elif args.command == "validate":
            cmd_validate(_resolve_config(args))
        elif args.command == "preset":
            for name in preset_names():
                print(name)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropagationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
