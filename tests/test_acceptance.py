"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance and grid size is pinned here; nothing is calibrated
at run time.
"""

import os
import time

import numpy as np
import pytest

from lowcon import (
    ExperimentConfig,
    gen_predictors,
    generate_olhd,
    ingest_csv,
    leverage_scores,
    lhd_levels,
    lowcon,
    mse_decompose,
    run_emse,
    run_simulation,
    scale_to_cube,
    singular_values,
    toy_config,
    trace_inv_bound,
    unif,
    weyl_kappa_bound,
    worst_case_mse,
    write_result_csv,
)
from lowcon.harness import METHODS
from synthetic import soil_like_dataset


def report(name: str, detail: str = ""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def random_full_rank(rng, r, p):
    while True:
        X = rng.standard_normal((r, p))
        s = np.linalg.svd(X, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return X


def test_criterion_1_worst_case_exactness():
    """Worst-case MSE: the maximizing shift attains the bound; admissible
    shifts never exceed it."""
    t0 = time.time()
    rng = np.random.default_rng(20_260_101)
    sigma2, alpha = 0.5, 1.3
    for _ in range(200):
        p = int(rng.integers(1, 7))
        r = int(rng.integers(p + 1, 31))
        X = random_full_rank(rng, r, p)
        wc = worst_case_mse(X, sigma2, alpha)
        attained = mse_decompose(X, wc.h_star, sigma2).total
        assert attained == pytest.approx(wc.bound, rel=1e-8)

        budget = alpha**2 * float(np.sum(singular_values(X) ** 2))
        H = rng.standard_normal((1000, r))
        radii = np.sqrt(budget * rng.random(1000))
        radii[:50] = np.sqrt(budget)  # include shifts exactly on the budget
        H *= (radii / np.linalg.norm(H, axis=1))[:, None]
        coef, *_ = np.linalg.lstsq(X, H.T, rcond=None)
        totals = sigma2 * np.sum(1.0 / singular_values(X) ** 2) + np.sum(
            coef**2, axis=0
        )
        assert np.all(totals <= wc.bound + 1e-10)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("criterion 1 (worst-case bound exact and dominating)",
           f"200 designs x 1000 shifts in {elapsed:.1f}s")


def test_criterion_2_perturbation_bound_chain():
    """Extreme-singular-value bounds dominate the directly computed
    condition number and inverse trace for perturbed designs."""
    t0 = time.time()
    rng = np.random.default_rng(20_260_202)
    checked = 0
    while checked < 500:
        p = int(rng.integers(1, 7))
        r = int(rng.integers(p + 1, 25))
        L = random_full_rank(rng, r, p)
        sL = singular_values(L)
        D = rng.standard_normal((r, p))
        D *= rng.uniform(0.05, 0.95) * sL[-1] / singular_values(D)[0]
        s = singular_values(L + D)
        kappa = (s[0] / s[-1]) ** 2
        trace_inv = float(np.sum(1.0 / s**2))
        assert kappa <= weyl_kappa_bound(L, D) * (1 + 1e-12)
        assert trace_inv <= trace_inv_bound(L, D) * (1 + 1e-12)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report("criterion 2 (singular-value bound chain)",
           f"500 perturbed designs in {elapsed:.1f}s")


def test_criterion_3_design_quality():
    """Low-correlation designs reach kappa <= 1.13 in at least 95% of seeded
    runs at three sizes, always preserving the Latin hypercube property."""
    t0 = time.time()
    for r, p in ((9, 2), (40, 10), (80, 20)):
        hits = 0
        levels = lhd_levels(r)
        for seed in range(100):
            d = generate_olhd(r, p, np.random.default_rng(seed))
            for j in range(p):
                assert np.array_equal(np.sort(d.points[:, j]), levels)
            hits += d.kappa <= 1.13
        assert hits >= 95, f"(r={r}, p={p}): only {hits}/100 reached target"
        report(f"criterion 3 (design quality r={r}, p={p})", f"{hits}/100 under 1.13")
    elapsed = time.time() - t0
    assert elapsed < 60.0


def test_criterion_4_toy_study():
    """One-predictor study: strict MSE ordering LOWCON < BLEV < UNIF at every
    subsample size, with the LOWCON value at r=10 inside the published band."""
    t0 = time.time()
    res = run_simulation(toy_config(r_list=(10, 30, 50), replicates=100, seed=0))
    for r in (10, 30, 50):
        mse = {m: res.row(m, r).mse for m in ("UNIF", "BLEV", "LOWCON")}
        assert mse["LOWCON"] < mse["BLEV"] < mse["UNIF"], (r, mse)
    at10 = res.row("LOWCON", 10).mse
    assert 0.014 <= at10 <= 0.056
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report("criterion 4 (toy study ordering and level)",
           f"LOWCON at r=10 is {at10:.4f}, {elapsed:.1f}s")


def test_criterion_5_simulation_grid_ordering():
    """Scaled simulation grid: the design-based selection beats uniform
    subsampling in log MSE for every (distribution, shape) cell."""
    t0 = time.time()
    for dist in ("D1", "D3"):
        for mis in ("H1", "H2", "H5"):
            cfg = ExperimentConfig(
                mode="simulate", dist=dist, misspec=mis, n=2000, p=10,
                r_list=(40,), sigma2=1.0, replicates=50, seed=2026,
                methods=("UNIF", "LOWCON"),
            )
            res = run_simulation(cfg)
            lo = res.row("LOWCON", 40).log_mse
            un = res.row("UNIF", 40).log_mse
            assert lo < un, (dist, mis, lo, un)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report("criterion 5 (grid ordering, 6 cells)", f"{elapsed:.1f}s")


def test_criterion_6_correct_model_sanity():
    """With no misspecification: noiseless runs are exact for every method,
    and the extreme-point/unweighted-leverage baselines beat uniform."""
    t0 = time.time()
    exact = run_simulation(ExperimentConfig(
        mode="simulate", dist="D1", misspec="H1", n=500, p=10,
        r_list=(40,), sigma2=0.0, replicates=3, seed=1, methods=METHODS,
    ))
    for row in exact.rows:
        assert row.mse <= 1e-16, (row.method, row.mse)

    mses = {m: [] for m in ("UNIF", "IBOSS", "LEVUNW")}
    for seed in (1, 2, 3, 4, 5):
        res = run_simulation(ExperimentConfig(
            mode="simulate", dist="D1", misspec="H1", n=2000, p=10,
            r_list=(40,), sigma2=1.0, replicates=50, seed=seed,
            methods=tuple(mses),
        ))
        for m in mses:
            mses[m].append(res.row(m, 40).mse)
    med = {m: float(np.median(v)) for m, v in mses.items()}
    assert med["IBOSS"] <= med["UNIF"]
    assert med["LEVUNW"] <= med["UNIF"]
    elapsed = time.time() - t0
    report("criterion 6 (correct-model sanity)",
           f"medians {med['IBOSS']:.4f}/{med['LEVUNW']:.4f} vs "
           f"{med['UNIF']:.4f}, {elapsed:.1f}s")


def test_criterion_7_condition_number_dominance():
    """Median subsample condition number: design-based below uniform on
    heavy-tailed data."""
    t0 = time.time()
    kap_low, kap_unif = [], []
    for seed in range(50):
        X = gen_predictors("D3", 2000, 10, np.random.default_rng(10_000 + seed))
        kap_low.append(
            lowcon(X, 40, rng=np.random.default_rng(seed)).diagnostics.kappa_sub
        )
        kap_unif.append(unif(X, 40, np.random.default_rng(seed)).diagnostics.kappa_sub)
    lo, un = float(np.median(kap_low)), float(np.median(kap_unif))
    assert lo < un
    report("criterion 7 (condition-number dominance)",
           f"median {lo:.1f} vs {un:.1f}, {time.time()-t0:.1f}s")


def test_criterion_8_oracle_suites():
    """Independent oracles: dense hat diagonal, linear scan, symmetric
    eigensolver, and Monte Carlo MSE."""
    rng = np.random.default_rng(8)

    X = rng.standard_normal((40, 5))
    dense = np.diag(X @ np.linalg.inv(X.T @ X) @ X.T)
    assert np.allclose(leverage_scores(X), dense, atol=1e-10)

    # LOWCON's claim step against a linear scan over the unclaimed rows
    pts = rng.standard_normal((800, 4))
    sel = lowcon(pts, 200, rng=rng)
    scaled, _ = scale_to_cube(pts)
    free = np.ones(len(pts), dtype=bool)
    for q, got in zip(sel.design.points, sel.indices):
        rows = np.flatnonzero(free)
        d2 = ((scaled[rows] - q) ** 2).sum(axis=1)
        assert got == rows[np.argmin(d2)]
        free[got] = False

    A = rng.standard_normal((9, 4))
    ev = np.linalg.eigvalsh(A.T @ A)[::-1]
    assert np.allclose(singular_values(A) ** 2, ev, atol=1e-10)

    Xs = random_full_rank(rng, 8, 3)
    h = rng.standard_normal(8)
    sigma = 0.8
    rep = mse_decompose(Xs, h, sigma2=sigma**2)
    ndraw = 100_000
    noise = sigma * rng.standard_normal((ndraw, 8))
    pinv = np.linalg.pinv(Xs)
    sq = np.sum((pinv @ (h[None, :] + noise).T) ** 2, axis=0)
    se = sq.std(ddof=1) / np.sqrt(ndraw)
    assert abs(rep.total - sq.mean()) <= 3 * se

    report("criterion 8 (oracle suites)", "hat/scan/eig/Monte-Carlo all agree")


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed give byte-identical CSV output; replicate
    execution order does not affect results."""
    cfg = ExperimentConfig(
        mode="simulate", dist="D2", misspec="H3", n=400, p=8, r_list=(24,),
        replicates=6, seed=77, methods=("UNIF", "BLEV", "LOWCON"),
    )
    res1 = run_simulation(cfg)
    res2 = run_simulation(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_result_csv(res1.rows, p1)
    write_result_csv(res2.rows, p2)
    assert p1.read_bytes() == p2.read_bytes()

    shuffled = run_simulation(cfg, _replicate_order=[5, 0, 3, 1, 4, 2])
    assert shuffled.rows == res1.rows
    report("criterion 9 (byte-identical output, order-invariant replicates)")


def test_criterion_10_measurement_discipline():
    """Every method reveals exactly r responses per replicate across the
    desk-scale grid."""
    cfg = ExperimentConfig(
        mode="simulate", dist="D1", misspec="H2", n=1000, p=10,
        r_list=(20, 40), replicates=3, seed=5, methods=METHODS,
    )
    res = run_simulation(cfg)
    assert not res.failed_cells
    total_checked = 0
    for (_, _, _, r), counts in res.response_reads.items():
        assert counts == [r] * cfg.replicates
        total_checked += len(counts)
    assert total_checked == len(METHODS) * 2 * cfg.replicates
    report("criterion 10 (response reads equal r)",
           f"{total_checked} replicate cells audited")


def _emse_rank_one_runs(dataset, masters=(1, 2, 3)):
    wins = 0
    details = []
    for master in masters:
        cfg = ExperimentConfig(
            mode="realdata", n=dataset.X_raw.shape[0] + 1, p=5, r_list=(25,),
            replicates=100, seed=master, methods=METHODS,
        )
        res = run_emse(dataset, cfg)
        vals = {m: res.row(m, 25, "EMSE_OLS").mse for m in METHODS}
        best = min(vals, key=vals.get)
        wins += best == "LOWCON"
        details.append(f"seed {master}: best {best} ({vals[best]:.2f})")
    return wins, details


def test_criterion_11_emse_rank_one():
    """EMSE protocol at r = 5p: the design-based selection attains rank 1
    against the full-sample OLS surrogate for at least 2 of 3 master seeds.

    Runs on the committed synthetic terrain-style dataset; point
    LOWCON_SOIL_CSV at the real sand-content file to run the original
    protocol as well."""
    t0 = time.time()
    wins, details = _emse_rank_one_runs(soil_like_dataset())
    assert wins >= 2, details
    report("criterion 11 (EMSE rank 1 on soil-like data)",
           f"{wins}/3 master seeds, {time.time()-t0:.1f}s")

    real = os.environ.get("LOWCON_SOIL_CSV")
    if real:
        data = ingest_csv(real, "Sand", ["CTI", "ELEV", "RELI", "TMAP", "TMFI"])
        wins, details = _emse_rank_one_runs(data)
        assert wins >= 2, details
        report("criterion 11b (EMSE rank 1 on the real dataset)", f"{wins}/3")
