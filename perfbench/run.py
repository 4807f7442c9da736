"""tofclock benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload continuous-highE --seed 1 --seconds 20 --trace 0

Workloads: ``continuous-highE``, ``kicked-sweep``, ``regime-sweep`` (see
``workloads.py``).  The run times set-up in fresh interpreters, then runs
passes of the workload (at least three, until ``--seconds`` have elapsed),
checks every output, and prints one JSON line last on stdout:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced ones plus the tracing
overhead.  A human summary goes to stderr; the full result (provenance,
spreads, failures by name, experiments without a reference) and, when
traced, every span go to ``perfbench/out/``.

End-to-end metrics (``--trace 0``).  Every timing is in seconds on the
reference host: as measured, times reference probe / this host's probe
(``host_probe``); the result file keeps the measured values and the probes.
Per-layer metrics are as measured, except ``trace.overhead_s`` (scaled
traced minus scaled untraced ``wall_s``).

- ``wall_s``: median wall time of a pass (quartiles in the result file).
- ``setup_s``: median of 5 set-ups, each in a fresh interpreter, scaled by
  the run's median probe.  Set-up is mostly imports, which follow the probe
  loosely: scaling widens the spread between runs but keeps the median of
  ten runs steadier.
- ``run_p50_s``, ``run_p90_s``: percentiles over the workload's experiments
  of each experiment's median latency over untraced passes (more robust to
  a slow pass than pooling every pass); only regime-sweep has 10
  experiments beyond p90, elsewhere the figures are indicative.
- ``mpoint_steps_per_s``: clock modes x grid points x FFT-pair steps of the
  completed experiments per second of pass, / 1e6; median over passes.
- ``success_rate``: 1 - error_rate; failed experiments and checks over
  attempted operations (every experiment, plus regime-sweep's compare).
- ``ref_sup_cdf``: largest sup-CDF distance to the stored finer reference
  over completed experiments (``refs.py``).
- ``mean_rel_err``: mean over completed clock experiments of
  |mean reading - ideal dwell mean| / ideal dwell mean.
- ``peak_rss_mb``: peak resident memory of this process.

``failed`` counts unexpected failures.  The documented failure of
``fig1-kicked-T0.2`` (BoundaryLeakError, ROADMAP item 5) is expected: it
does not make the run incorrect, but it counts in ``success_rate`` and in
the reported ``error_rate``, with its name.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 5
MIN_PASSES = 3  # determinism is checked between passes; a median of 3 rejects one slow burst
PROBE_ELEMENTS = 1.5e7  # array elements x FFT pairs per host probe, ~0.25 s
# host probe at the reference host's median speed (2-vCPU Xeon, numpy 2.4.6,
# scipy 1.17.1); timings are scaled to it, see host_probe
REFERENCE_PROBE_S = {"continuous-highE": 0.29, "kicked-sweep": 0.29, "regime-sweep": 0.19}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread before numpy loads.

    Every experiment calls ``overlap_matrix``, a BLAS matmul; with two
    OpenBLAS threads the helper busy-waits after each call and keeps the
    other vCPU busy (regime-sweep used 1.7x more CPU time than wall time),
    slowing the measured thread.  One thread keeps the whole run on one
    core, like ``workers=1``.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def host_probe(shape: tuple[int, int]) -> float:
    """Seconds of a fixed kernel like the engine's step (FFT, phase, inverse
    FFT) on an array of ``shape``, run by the benchmark's own code, so a
    change to tofclock cannot move it.

    On a shared 2-vCPU Xeon VM the speed drifted by up to 1.8x over tens of
    seconds to minutes (CPU time = wall time, no steal), so runs made
    minutes apart disagreed far more than the bounds allow.  Each pass is
    timed between two probes and its timings are scaled by reference probe /
    mean of the two probes: seconds on the reference host at its median
    speed.
    """
    np, fft = sys.modules["numpy"], sys.modules["scipy.fft"]
    a = np.exp(1j * np.linspace(0.0, 7.0, shape[0] * shape[1])).reshape(shape)
    phase = np.exp(1j * np.linspace(0.0, 3.0, shape[1]))
    t0 = time.perf_counter()
    for _ in range(max(1, round(PROBE_ELEMENTS / a.size))):
        a = fft.ifft(fft.fft(a, axis=-1) * phase, axis=-1)
    return time.perf_counter() - t0


def setup_samples(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def provenance(experiments) -> dict:
    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if read(idx / "type") in ("Unified", "Data"):
            caches[f"L{read(idx / 'level')}"] = read(idx / "size")
    sizes = {e.name: e.array_bytes for e in experiments}
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "cache_sizes": caches,
        "array_bytes_max": max(sizes.values()),
        "array_bytes_total": sum(sizes.values()),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["continuous-highE", "kicked-sweep", "regime-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    pin_threads()
    import workloads as wl  # imports tofclock from src/, or exits non-zero
    import refs
    import tracing

    setup_s = setup_samples(args.workload, args.seed)
    references = refs.References()
    tracer = tracing.Tracer() if args.trace else None
    experiments = wl.setup(args.workload, args.seed)
    ideal = {e.name: wl.ideal_mean(e.config) for e in experiments
             if e.config.mode != "ideal-reference"}
    # also builds every reference series, so no pass pays for it
    missing = references.missing(experiments)
    run_pass = wl.WORKLOADS[args.workload]["pass"]
    work_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    no_span = lambda name: contextlib.nullcontext()  # noqa: E731

    shape = max((e.config.clock.n_modes, e.config.grid.num_points) for e in experiments)
    reference = REFERENCE_PROBE_S[args.workload]
    probes = [host_probe(shape)]
    walls, traced_walls, rates = [], [], []  # walls as measured
    speeds, traced_speeds = [], []  # reference probe / probe, for each pass
    latencies: dict[str, list[float]] = {}  # untraced passes only
    attempted = failed_all = unexpected = 0
    failures: dict[str, int] = {}
    first_digest: dict[str, str] = {}
    sups, rel_errs = [], []
    t_start = time.perf_counter()
    while (passes := len(walls) + len(traced_walls)) < MIN_PASSES or (
            time.perf_counter() - t_start < args.seconds):
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
            with tracer.span("pass"):
                outcomes, wall, pass_failures = run_pass(
                    experiments, references, work_dir, tracer.span)
            tracer.uninstall()
            traced_walls.append(wall)
        else:
            outcomes, wall, pass_failures = run_pass(
                experiments, references, work_dir, no_span)
            walls.append(wall)
        probes.append(host_probe(shape))
        speed = 2.0 * reference / (probes[-2] + probes[-1])
        (traced_speeds if traced else speeds).append(speed)

        work = 0.0
        for out in outcomes:
            attempted += 1
            name = out.experiment.name
            if not traced:
                latencies.setdefault(name, []).append(out.latency_s * speed)
            problems = [out.error] if out.error else wl.check(
                args.workload, out, ideal, first_digest)
            if not problems:
                work += out.experiment.mpoint_steps
                if out.sup_cdf is not None:
                    sups.append(out.sup_cdf)
                if out.mean is not None:
                    rel_errs.append(abs(out.mean - ideal[name]) / ideal[name])
                continue
            failed_all += 1
            known = out.error_type is not None and out.error_type == out.experiment.known_failure
            unexpected += not known
            for text in problems:
                key = f"{name}: {text}" + (" [known failure]" if known else "")
                failures[key] = failures.get(key, 0) + 1
        if args.workload == "regime-sweep":
            attempted += 1  # the compare that ends the pass
        for text in pass_failures:
            failed_all += 1
            unexpected += 1
            failures[text] = failures.get(text, 0) + 1
        rates.append(work / (wall * speed))
    if work_dir.exists():
        shutil.rmtree(work_dir)

    scaled = [w * f for w, f in zip(walls, speeds)]
    # each experiment's median over passes, then percentiles over experiments
    per_exp = [statistics.median(v) for v in latencies.values()]
    p50, p90 = (float(wl.np.percentile(per_exp, q)) for q in (50, 90))
    e2e = {
        "wall_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup_s) * reference / statistics.median(probes), "s"),
        "run_p50_s": (p50, "s"),
        "run_p90_s": (p90, "s"),
        "mpoint_steps_per_s": (statistics.median(rates), "Mpt.step/s"),
        "success_rate": ((attempted - failed_all) / attempted, "ratio"),
        "ref_sup_cdf": (max(sups, default=None), "cdf"),
        "mean_rel_err": (statistics.fmean(rel_errs) if rel_errs else None, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if None in (v for v, _ in e2e.values()):
        raise SystemExit(f"perfbench: no completed experiment with a reference "
                         f"reading; failures: {failures}")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(walls) + len(traced_walls),
        "wall_s_passes": scaled,
        "wall_s_quartiles": statistics.quantiles(scaled, n=4, method="inclusive"),
        "wall_s_measured_passes": walls,
        "host_probe_s": probes,
        "host_speed": speeds,
        "setup_s_samples": setup_s,
        "latency_s_by_experiment": latencies,
        "latency_samples": len(per_exp),
        "samples_beyond_p50": sum(x > p50 for x in per_exp),
        "samples_beyond_p90": sum(x > p90 for x in per_exp),
        "error_rate": failed_all / attempted,
        "failures": failures,
        "experiments_without_reference": missing,
        "provenance": provenance(experiments),
    }

    if tracer:
        per_pass = tracing.median_metrics(tracer.layer_metrics("pass"))
        traced_scaled = [w * f for w, f in zip(traced_walls, traced_speeds)]
        # leaves out the first pass, which is often 10-30 % slower on kicked-sweep
        per_pass["trace.overhead_s"] = (statistics.median(traced_scaled)
                                        - statistics.median(scaled[1:] or scaled))
        metrics = {k: {"value": v, "unit": UNITS.get(k, _unit(k))} for k, v in per_pass.items()}
        detail["wall_s_traced_passes"] = traced_scaled
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    detail["metrics"] = metrics
    detail["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    summarize(detail, e2e)
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": unexpected, "metrics": metrics}))
    return 0


UNITS = {"core.region_mask_useful_ratio": "ratio", "trace.coverage": "ratio",
         "propagators.fft_gflops": "GFLOP/s", "propagators.fft_gflop_computed": "GFLOP",
         "propagators.fft_gb_computed": "GB", "cli.bytes_written": "bytes"}


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def summarize(detail: dict, e2e: dict) -> None:
    err = sys.stderr
    print(f"perfbench {detail['workload']} seed={detail['seed']} passes={detail['passes']} "
          f"trace={detail['trace']}", file=err)
    q1, q2, q3 = detail["wall_s_quartiles"]
    for k, (v, u) in e2e.items():
        print(f"  {k:20s} {v:.6g} {u}", file=err)
    print(f"  wall_s quartiles     {q1:.4f} / {q2:.4f} / {q3:.4f} s", file=err)
    print(f"  as measured          wall_s {statistics.median(detail['wall_s_measured_passes']):.4f} s,"
          f" host speed {statistics.median(detail['host_speed']):.3f} of reference", file=err)
    few = " (fewer than 10 beyond p90: indicative only)" * (detail["samples_beyond_p90"] < 10)
    print(f"  latency samples      {detail['latency_samples']} experiments "
          f"({detail['samples_beyond_p50']} beyond p50, "
          f"{detail['samples_beyond_p90']} beyond p90){few}", file=err)
    if detail["trace"]:
        over = detail["metrics"]["trace.overhead_s"]["value"]
        print(f"  trace overhead       {over:.4f} s ({over / e2e['wall_s'][0]:.1%} of wall_s)",
              file=err)
    print(f"  error_rate           {detail['error_rate']:.6g}", file=err)
    for name, count in detail["failures"].items():
        print(f"  FAILED x{count}: {name}", file=err)
    by_reason: dict[str, list[str]] = {}
    for name, why in detail["experiments_without_reference"].items():
        by_reason.setdefault(why, []).append(name)
    for why, names in by_reason.items():
        more = " ..." * (len(names) > 6)
        print(f"  no reference x{len(names)} ({why}): {', '.join(names[:6])}{more}", file=err)


if __name__ == "__main__":
    sys.exit(main())
