"""Benchmark for the lowcon package.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call runs one workload in this single process, as a closed loop with one
caller: the next unit of work starts when the previous one has returned. The
package is imported from ``src/`` of the checkout; nothing is installed. BLAS
runs on one thread (``BLAS_THREADS``, never more than ``nproc``), and each
workload runs one untimed warm-up unit before the clock starts.

Workloads (inputs are derived from ``--seed``; the same seed gives the same
inputs):

``sim_paper``
    ``load_config`` + ``run_simulation`` + ``write_result_csv``, the
    ``lowcon simulate`` path, on D3/H2 with n=10000, p=10, r in 20..100 and
    all six methods. A unit is one replicate with a fresh config seed, so
    every unit draws fresh predictors and nothing can be reused.
``budget_large_r``
    The library quickstart: ``gen_predictors`` -> ``lowcon(keep_design=True)``
    (and the five baselines) -> reveal -> ``fit_sls`` at n=2000, p=20, r=400.
    The OLHD descent dominates.
``emse_lowdim``
    ``ingest_csv`` + ``run_emse`` + ``write_result_csv``, the ``lowcon emse``
    path, on a 50000 x 3 CSV the benchmark writes from the seed, r in (20, 50),
    two replicates per unit. The predictors are the same in every replicate.

Units repeat until ``--seconds`` have passed, and at least ``quality_units``
of them run. A unit's time counts only its calls into the package. Set-up
is measured apart from the loop: ``SETUP_SAMPLES`` fresh interpreters each
time ``import lowcon`` plus loading the workload's inputs.

End-to-end metrics (``--trace 0``):

- ``setup_s``: median cold set-up time (import plus ``load_config`` and, for
  ``emse_lowdim``, ``ingest_csv``).
- ``fits_per_s``: select -> reveal -> fit units completed per second of time
  spent in the package: the median over units of the unit's rate.
- ``lowcon_ms_p50``: time of one LOWCON select -> reveal -> fit, from
  ``ResultRow.mean_runtime_ms`` in harness workloads and timed per call in
  ``budget_large_r``: the median over units of the unit's mean.
- ``baseline_ms_p50``: the same for the five baselines, their means summed
  within each unit.
- ``peak_rss_mb``: peak resident memory of this process.
- ``lowcon_kappa_p50``: median ``kappa_sub`` of LOWCON selections in the
  first ``quality_units`` units, a function of the seed alone.

Every time (and ``fits_per_s``) is reported in reference time: scaled by the
run's speed index from ``speed.py``, measured between units, so that load
elsewhere on a shared machine moves it less. The ``#`` line gives the scale
factor; dividing by it recovers the wall-clock value. ``setup_s`` is scaled
inside each probe process instead, by the kernel run there.

Per-layer metrics (``--trace 1``) come from spans the benchmark records
around its calls into the package (see ``spans.py``). The traced run
alternates untraced and traced units of equal seeds. A traced unit records
spans around the unit's own calls; in harness workloads it then replays one
unit's selections through the public samplers. Every LOWCON selection the
benchmark makes there is rebuilt from its public stages on the same seed
(``oracle.py``). A ``_ms`` metric is the median duration of one call; it is
0 when the workload never makes that call.

Each entry names the end-to-end metric and workload it should move.

- ``samplers.lowcon_ms``: one ``lowcon()`` call.
- ``samplers.match_ms``: ``lowcon()`` minus its public stages on the same
  seed, that is the neighbour search plus the claim loop; moves
  ``lowcon_ms_p50`` and ``fits_per_s`` on ``sim_paper`` and ``emse_lowdim``.
- ``samplers.claim_conflicts``: mean per LOWCON selection of design points
  whose nearest row was already claimed, counted by the oracle; moves
  ``lowcon_ms_p50`` on ``budget_large_r``.
- ``designs.generate_olhd_ms``, ``designs.olhd_peak_mb`` (``tracemalloc``
  peak of one call at the workload's largest r) and
  ``designs.olhd_target_met_ratio`` (share of designs with kappa <= 1.13):
  move ``lowcon_ms_p50`` and ``peak_rss_mb`` on ``budget_large_r``.
- ``samplers.scale_to_cube_ms``, ``samplers.theta_box_ms``,
  ``designs.rescale_design_ms``, ``linalg.condition_number_ms``: move
  ``lowcon_ms_p50`` on ``emse_lowdim``.
- ``samplers.{unif,blev,slev,levunw,iboss}_ms``, ``linalg.leverage_scores_ms``:
  move ``baseline_ms_p50`` on ``emse_lowdim`` and ``sim_paper``.
- ``datagen.gen_predictors_ms``, ``datagen.gen_response_ms``: move
  ``fits_per_s`` on ``sim_paper``.
- ``estimators.fit_sls_ms``, ``estimators.fit_huber_m_ms`` and
  ``estimators.huber_iterations`` (mean IRLS iterations of the surrogate
  fit): move ``fits_per_s`` on ``emse_lowdim``.
- ``harness.ingest_csv_s``: moves ``setup_s`` on ``emse_lowdim``.
- ``harness.run_ms`` (one harness call), ``harness.write_result_csv_ms`` and
  ``harness.reveal_reads`` (mean responses revealed per selection).
- ``bench.trace_overhead_ms``: median traced unit wall time minus median
  untraced unit wall time.

Correctness gates; any failure sets ``correct`` to false:

- each LOWCON selection made by the benchmark equals an independent
  brute-force greedy claim (direct-difference distances, design order, ties
  to the lowest index) over ``scale_to_cube(X)``; traced, the selection
  rebuilt from public stages must equal ``lowcon()``'s indices and design;
- every selection reveals exactly r responses (``response_reads`` in the
  harness);
- a harness config run twice writes a CSV with the same sha256.

Output: lines starting with ``#`` describe the run (environment, sample
counts, CSV digest, span self times). The last line is one JSON object::

    {"correct": true, "attempted": 240, "failed": 0,
     "metrics": {"setup_s": {"value": 0.1412, "unit": "s"}, ...}}

``attempted`` counts select -> reveal -> fit units, ``failed`` those whose
fit failed after the harness's retries. With ``--trace 0`` ``metrics`` holds
every end-to-end metric, with ``--trace 1`` every per-layer metric. The exit
code is 0 whenever a result is printed; without ``src/lowcon`` it is 2 and
nothing is printed.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import ReferenceKernel  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
KERNEL_REPEAT = 3  # reference kernel runs per gap between units

PER_LAYER_SPANS = (
    "samplers.lowcon", "samplers.scale_to_cube", "samplers.theta_box",
    "designs.generate_olhd", "designs.rescale_design", "linalg.condition_number",
    "samplers.unif", "samplers.blev", "samplers.slev", "samplers.levunw",
    "samplers.iboss", "linalg.leverage_scores", "datagen.gen_predictors",
    "datagen.gen_response", "estimators.fit_sls", "estimators.fit_huber_m",
    "harness.write_result_csv",
)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def setup_seconds(probe_args: list[str]) -> float:
    """Median cold set-up over fresh interpreters, after one untimed probe."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *probe_args]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        if k:  # the first probe also compiles bytecode
            samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def end_to_end(units, quality_units: int, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "fits_per_s": (statistics.median((u.fits - u.failed) / u.work_s for u in units),
                       "1/s"),
        "lowcon_ms_p50": (statistics.median(u.lowcon_ms for u in units), "ms"),
        "baseline_ms_p50": (statistics.median(u.baseline_ms for u in units), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
        "lowcon_kappa_p50": (statistics.median(
            [x for u in units[:quality_units] for x in u.lowcon_kappa]), "ratio"),
    }


def run_untraced(workload, run, kernel, seconds: float):
    kernel(KERNEL_REPEAT)
    setup_s = setup_seconds(workload.prepare(run))
    workload.load(run, None)
    workload.warmup(run)
    units = []
    start = time.perf_counter()
    while len(units) < workload.quality_units or time.perf_counter() - start < seconds:
        kernel(KERNEL_REPEAT)
        units.append(workload.unit(run, len(units)))
    kernel(KERNEL_REPEAT)
    workload.verify(run, units)
    info = {"units": len(units), "csv_sha256_unit0": units[0].digest}
    return units, end_to_end(units, workload.quality_units, setup_s), info


def run_traced(workload, run, kernel, seconds: float):
    tracer = Tracer()
    workload.prepare(run)
    workload.load(run, tracer)
    workload.warmup(run)
    units, walls = [], {False: [], True: []}
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        digests = set()
        # alternate which side runs first, so neither always follows the other
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            kernel(KERNEL_REPEAT)
            tracer.unit = i
            t0 = time.perf_counter()
            unit = workload.unit(run, i, tracer if traced else None)
            walls[traced].append(time.perf_counter() - t0)
            units.append(unit)
            digests.add(unit.digest)
        run.check(len(digests) == 1, "traced and untraced units wrote different CSVs")
        i += 1
    kernel(KERNEL_REPEAT)
    c = tracer.counts
    metrics = {name + "_ms": (tracer.median_ms(name), "ms") for name in PER_LAYER_SPANS}
    metrics.update({
        "samplers.match_ms": (statistics.median(c["samplers.match_ms"]), "ms"),
        "samplers.claim_conflicts": (_mean(c["samplers.claim_conflicts"]), "count"),
        "designs.olhd_peak_mb": (workload.olhd_peak_mb(run), "MiB"),
        "designs.olhd_target_met_ratio": (_mean(c["designs.olhd_target_met"]), "ratio"),
        "estimators.huber_iterations": (_mean(c["estimators.huber_iterations"]), "count"),
        "harness.run_ms": (tracer.median_ms("harness.run"), "ms"),
        "harness.ingest_csv_s": (tracer.median_ms("harness.ingest_csv") / 1e3, "s"),
        "harness.reveal_reads": (_mean(c["harness.reveal_reads"]), "count"),
        "bench.trace_overhead_ms": (
            (statistics.median(walls[True]) - statistics.median(walls[False])) * 1e3,
            "ms"),
    })
    info = {"pairs": i, "span_self_ms": tracer.self_ms()}
    return units, metrics, info


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = "unknown"
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "blas": blas, "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lowcon" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        run = Run(seed=args.seed, work=Path(work))
        kernel = ReferenceKernel()
        measure = run_traced if args.trace else run_untraced
        units, metrics, info = measure(workload, run, kernel, args.seconds)
    scale = kernel.scale()
    # setup_s is already in reference time: each probe measures its own speed
    metrics = {name: (value * scale if unit in ("ms", "s") and name != "setup_s" else
                      value / scale if unit == "1/s" else value, unit)
               for name, (value, unit) in metrics.items()}
    info.update(environment(), workload=args.workload, seed=args.seed,
                trace=args.trace, failures=run.failures, speed_scale=scale,
                kernel_samples=len(kernel.samples))
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": sum(u.fits for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
