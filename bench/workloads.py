"""The benchmark's workloads, each run untraced or traced.

A workload is a sequence of units of work. ``unit(run, i, tracer)`` runs
unit ``i`` from seeds derived from the benchmark seed and ``i``, so a unit
repeats exactly; with a tracer it also records spans around each call into
the package, and harness workloads replay one unit's selections through the
public samplers so the per-stage spans can be taken. Only
``select -> reveal -> fit`` counts as a fit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import lowcon as lc
from oracle import STAGES, greedy_claim, rebuild_lowcon

KAPPA_TARGET = 1.13  # generate_olhd's default target
THETA = 1.0
BASELINES = ("UNIF", "BLEV", "SLEV", "LEVUNW", "IBOSS")
METHODS = BASELINES + ("LOWCON",)


def derive_seed(*key: int) -> int:
    """A 32-bit seed for a (benchmark seed, purpose, index, ...) key."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


def _span(tracer):
    return tracer.span if tracer is not None else (lambda name: nullcontext())


@dataclasses.dataclass
class Run:
    """State of one benchmark process: its seed, scratch directory and gates."""

    seed: int
    work: Path
    failures: list[str] = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.failures:
            self.failures.append(what)


@dataclasses.dataclass
class Unit:
    """What one unit of work measured."""

    work_s: float  # time inside package calls, benchmark checks excluded
    fits: int
    failed: int
    lowcon_ms: float  # mean per LOWCON selection
    baseline_ms: float  # per-selection means of the five baselines, summed
    lowcon_kappa: list[float]
    digest: str | None = None


def select(method: str, X, r: int, rng) -> lc.SubsampleSelection:
    if method == "UNIF":
        return lc.unif(X, r, rng)
    if method == "BLEV":
        return lc.blev(X, r, rng)
    if method == "SLEV":
        return lc.slev(X, r, rng)
    if method == "LEVUNW":
        return lc.levunw(X, r, rng)
    if method == "IBOSS":
        return lc.iboss(X, r)
    return lc.lowcon(X, r, theta=THETA, rng=rng, keep_design=True)


def check_lowcon(run: Run, X, r: int, sel, seed, tracer, sel_span) -> None:
    """Gate a LOWCON selection against the brute-force greedy claim.

    Untraced, the claim runs over the selection's own design. Traced, the
    selection is rebuilt from the public stages on the same seed, which also
    gives the matching time as the residual of ``lowcon()`` over the stages.
    """
    if tracer is None:
        X_scaled, _ = lc.scale_to_cube(X)
        indices, _ = greedy_claim(X_scaled, sel.design.points)
        run.check(np.array_equal(indices, sel.indices),
                  "LOWCON indices differ from the brute-force greedy claim")
        return
    mark = len(tracer.spans)
    rebuilt = rebuild_lowcon(X, r, THETA, np.random.default_rng(seed), tracer)
    run.check(
        np.array_equal(rebuilt["design_points"], sel.design.points)
        and np.array_equal(rebuilt["indices"], sel.indices)
        and rebuilt["kappa_sub"] == sel.diagnostics.kappa_sub,
        "LOWCON rebuilt from its public stages differs from lowcon()",
    )
    tracer.count("samplers.claim_conflicts", rebuilt["conflicts"])
    tracer.count("designs.olhd_target_met", rebuilt["design_kappa"] <= KAPPA_TARGET)
    tracer.count("samplers.match_ms",
                 tracer.duration_ms(sel_span) - tracer.total_ms(STAGES, mark))


def select_reveal_fit(run: Run, X, y, r: int, key: tuple, tracer=None,
                      intercept: bool = False) -> dict:
    """Every method selects r rows, reveals only their responses and fits.

    Returns {method: (select+reveal+fit ms, selection, fit or None)}.
    """
    span = _span(tracer)
    hidden = lc.HiddenResponses(y)
    if tracer is not None:
        with span("linalg.leverage_scores"):
            lc.leverage_scores(X)
    out = {}
    for code, method in enumerate(METHODS, 1):
        seed = key + (code,)
        t0 = time.perf_counter()
        with span("samplers." + method.lower()) as sel_span:
            sel = select(method, X, r, np.random.default_rng(seed))
        reads = hidden.reads
        y_sub = hidden.reveal(sel.indices)
        X_sub = X[sel.indices]
        if intercept:
            X_sub = np.column_stack([np.ones(r), X_sub])
        try:
            with span("estimators.fit_sls"):
                fit = lc.fit_sls(X_sub, y_sub, weights=sel.weights)
        except lc.RankDeficient:
            fit = None
        ms = (time.perf_counter() - t0) * 1e3
        run.check(hidden.reads - reads == r, "revealed responses != r per selection")
        if tracer is not None:
            tracer.count("harness.reveal_reads", hidden.reads - reads)
        if method == "LOWCON":
            check_lowcon(run, X, r, sel, seed, tracer, sel_span)
        out[method] = (ms, sel, fit)
    return out


def olhd_peak_mb(r: int, p: int, seed: tuple) -> float:
    """Peak traced allocation of one generate_olhd call, in MiB."""
    tracemalloc.start()
    try:
        lc.generate_olhd(r, p, np.random.default_rng(seed))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class HarnessWorkload:
    """A unit is one harness call on a config file, plus the result CSV.

    Every unit uses a fresh config seed. The CSV of unit 0 is written again
    after the timed loop and must have the same sha256.
    """

    name = ""
    config: dict = {}
    quality_units = 8

    def prepare(self, run: Run) -> list[str]:
        """Write the inputs; returns the set-up probe's arguments."""
        self.config_path = run.work / f"{self.name}.json"
        self.config_path.write_text(json.dumps(self.config))
        return [str(self.config_path)]

    def load(self, run: Run, tracer) -> None:
        self.loaded = lc.load_config(self.config_path)

    def call(self, config):
        raise NotImplementedError

    def replay(self, run: Run, i: int, tracer) -> None:
        raise NotImplementedError

    def warmup(self, run: Run) -> None:
        self.call(dataclasses.replace(
            self.loaded, r_list=self.loaded.r_list[:1], replicates=1,
            seed=derive_seed(run.seed, 9)))

    def unit(self, run: Run, i: int, tracer=None) -> Unit:
        span = _span(tracer)
        config = dataclasses.replace(self.loaded, seed=derive_seed(run.seed, 1, i))
        path = run.work / f"{self.name}-{i}.csv"
        t0 = time.perf_counter()
        with span("harness.run"):
            result = self.call(config)
        with span("harness.write_result_csv"):
            lc.write_result_csv(result.rows, path)
        work_s = time.perf_counter() - t0
        for key, reads in result.response_reads.items():
            run.check(reads == [key[-1]] * config.replicates,
                      "response_reads != r per replicate per method")
        # run_emse writes each (method, r) twice, once per surrogate
        rows = [row for row in result.rows if row.misspec != "EMSE_M"]
        lowcon = [row for row in rows if row.method == "LOWCON"]
        if tracer is not None:
            self.replay(run, i, tracer)
        return Unit(
            work_s=work_s,
            fits=len(rows) * config.replicates,
            failed=sum(config.replicates - row.replicate_count for row in rows),
            lowcon_ms=statistics.fmean(row.mean_runtime_ms for row in lowcon),
            baseline_ms=sum(
                statistics.fmean(row.mean_runtime_ms for row in rows if row.method == m)
                for m in BASELINES),
            lowcon_kappa=[row.median_kappa for row in lowcon],
            digest=hashlib.sha256(path.read_bytes()).hexdigest(),
        )

    def verify(self, run: Run, units: list[Unit]) -> None:
        again = self.unit(run, 0)
        run.check(again.digest == units[0].digest,
                  "result CSV sha256 changed when a config was run again")

    def olhd_peak_mb(self, run: Run) -> float:
        return olhd_peak_mb(max(self.loaded.r_list), self.loaded.p, (run.seed, 4))


class SimPaper(HarnessWorkload):
    """``lowcon simulate`` on the paper's grid: fresh predictors per replicate."""

    name = "sim_paper"
    config = {
        "mode": "simulate", "dist": "D3", "misspec": "H2", "n": 10_000, "p": 10,
        "r_list": [20, 40, 60, 80, 100], "theta": THETA, "sigma2": 1.0,
        "replicates": 1, "seed": 0, "methods": list(METHODS),
    }

    def call(self, config):
        return lc.run_simulation(config)

    def replay(self, run: Run, i: int, tracer) -> None:
        c = self.loaded
        rng = np.random.default_rng([run.seed, 2, i])
        with tracer.span("datagen.gen_predictors"):
            X = lc.gen_predictors(c.dist, c.n, c.p, rng)
        term = lc.make_misspec(c.misspec, X)
        with tracer.span("datagen.gen_response"):
            y = lc.gen_response(X, lc.beta_layout(c.p), term, c.sigma2, rng)
        for r in c.r_list:
            select_reveal_fit(run, X, y, r, (run.seed, 3, i, r), tracer)


class EmseLowdim(HarnessWorkload):
    """``lowcon emse`` on a fixed, seeded low-dimensional CSV."""

    name = "emse_lowdim"
    response = "y"
    predictors = ("x1", "x2", "x3")
    config = {
        "mode": "realdata", "n": 50_000, "p": 3, "r_list": [20, 50],
        "theta": THETA, "replicates": 2, "seed": 0, "methods": list(METHODS),
    }

    def prepare(self, run: Run) -> list[str]:
        self.csv_path = run.work / f"{self.name}.csv"
        write_emse_csv(self.csv_path, self.config["n"], run.seed, self.response, self.predictors)
        return super().prepare(run) + [
            str(self.csv_path), self.response, ",".join(self.predictors)]

    def load(self, run: Run, tracer) -> None:
        super().load(run, tracer)
        with _span(tracer)("harness.ingest_csv"):
            self.dataset = lc.ingest_csv(self.csv_path, self.response, self.predictors)

    def call(self, config):
        return lc.run_emse(self.dataset, config)

    def replay(self, run: Run, i: int, tracer) -> None:
        X, y = self.dataset.X_raw, self.dataset.y
        with tracer.span("estimators.fit_huber_m"):
            huber = lc.fit_huber_m(np.column_stack([np.ones(X.shape[0]), X]), y)
        tracer.count("estimators.huber_iterations", huber.iterations)
        for rep in range(self.loaded.replicates):
            for r in self.loaded.r_list:
                select_reveal_fit(run, X, y, r, (run.seed, 3, i, rep, r), tracer,
                                  intercept=True)


def write_emse_csv(path: Path, n: int, seed: int, response: str, predictors) -> None:
    """Heavy-tailed correlated predictors and a response with a sine term.

    Generated by the benchmark itself, so the package sees only the file.
    """
    rng = np.random.default_rng([seed, 0])
    p = len(predictors)
    lag = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    chol = np.linalg.cholesky(10.0 * 0.6 ** lag)
    z = rng.standard_normal((n, p)) @ chol.T
    X = 1.0 + z / np.sqrt(rng.chisquare(10.0, n) / 10.0)[:, None]
    y = X @ np.linspace(1.0, 0.1, p) + 10.0 * np.sin(X[:, -1]) + rng.standard_normal(n)
    np.savetxt(path, np.column_stack([y, X]), fmt="%.17g", delimiter=",",
               header=",".join((response, *predictors)), comments="")


class BudgetLargeR:
    """The library quickstart at a large budget: r/n = 0.2 and p = 20.

    A unit draws predictors and responses, then every method selects,
    reveals and fits. Each LOWCON selection is gated by the greedy claim.
    """

    name = "budget_large_r"
    dist, misspec, n, p, r = "D3", "H2", 2_000, 20, 400
    quality_units = 10

    def prepare(self, run: Run) -> list[str]:
        return ["-"]

    def load(self, run: Run, tracer) -> None:
        pass

    def data(self, seed: tuple, tracer=None):
        span = _span(tracer)
        rng = np.random.default_rng(seed)
        with span("datagen.gen_predictors"):
            X = lc.gen_predictors(self.dist, self.n, self.p, rng)
        beta0 = lc.beta_layout(self.p)
        term = lc.make_misspec(self.misspec, X)
        with span("datagen.gen_response"):
            y = lc.gen_response(X, beta0, term, 1.0, rng)
        return X, y

    def warmup(self, run: Run) -> None:
        X, y = self.data((run.seed, 9))
        select_reveal_fit(run, X, y, 4 * self.p, (run.seed, 9))

    def unit(self, run: Run, i: int, tracer=None) -> Unit:
        t0 = time.perf_counter()
        X, y = self.data((run.seed, 1, i), tracer)
        data_s = time.perf_counter() - t0
        out = select_reveal_fit(run, X, y, self.r, (run.seed, 2, i), tracer)
        ms, sel, _ = out["LOWCON"]
        return Unit(
            work_s=data_s + sum(v[0] for v in out.values()) / 1e3,
            fits=len(out),
            failed=sum(v[2] is None for v in out.values()),
            lowcon_ms=ms,
            baseline_ms=sum(out[m][0] for m in BASELINES),
            lowcon_kappa=[sel.diagnostics.kappa_sub],
        )

    def verify(self, run: Run, units: list[Unit]) -> None:
        pass  # every LOWCON selection was already gated in select_reveal_fit

    def olhd_peak_mb(self, run: Run) -> float:
        return olhd_peak_mb(self.r, self.p, (run.seed, 4))


WORKLOADS = {w.name: w for w in (SimPaper, BudgetLargeR, EmseLowdim)}
