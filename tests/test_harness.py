import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest

import lowcon.harness as harness
import lowcon.samplers as samplers
from lowcon import (
    ColumnMissing,
    ConfigError,
    DataError,
    Dataset,
    DimensionTooSmall,
    EmptyAfterFiltering,
    ExperimentConfig,
    HiddenResponses,
    diagnose,
    fit_huber_m,
    ingest_csv,
    least_squares,
    load_config,
    misspec_values,
    run_emse,
    run_simulation,
    toy_config,
    worst_case_mse,
    write_result_csv,
)
from synthetic import soil_like_dataset


def small_config(**overrides):
    base = dict(
        mode="simulate",
        dist="D1",
        misspec="H1",
        n=300,
        p=4,
        r_list=(16,),
        theta=1.0,
        sigma2=1.0,
        replicates=3,
        seed=11,
        methods=harness.METHODS,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_default_r_grid(self):
        cfg = ExperimentConfig(p=10, n=10_000)
        assert cfg.r_list == (20, 40, 60, 80, 100)

    def test_r_bounds_checked(self):
        with pytest.raises(ConfigError):
            small_config(r_list=(4,))  # r == p
        with pytest.raises(ConfigError):
            small_config(r_list=(300,))  # r == n

    def test_r_equal_to_n_without_lowcon(self):
        cfg = small_config(r_list=(300,), replicates=1, methods=("UNIF",))
        res = run_simulation(cfg)
        assert res.row("UNIF", 300).replicate_count == 1
        assert res.response_reads[("D1", "H1", "UNIF", 300)] == [300]

    @pytest.mark.parametrize("r, methods, need", [
        (4, ("UNIF",), "r > p"),
        (301, ("UNIF",), "r <= n"),
        (7, ("IBOSS",), "r >= 2p"),
        (300, ("LOWCON",), "r < n"),
    ], ids=["r-equals-p", "r-above-n", "iboss-r-below-2p", "lowcon-r-equals-n"])
    def test_r_error_names_r_n_and_p(self, r, methods, need):
        with pytest.raises(ConfigError) as err:
            small_config(r_list=(r,), methods=methods)
        message = str(err.value)
        assert need in message
        assert f"r={r}" in message and "n=300" in message and "p=4" in message

    def test_dimension_rule_is_datagens(self):
        # the config raises datagen's own error, which is a ConfigError
        with pytest.raises(DimensionTooSmall) as err:
            ExperimentConfig(misspec="H3", n=300, p=7, r_list=(20,))
        assert isinstance(err.value, ConfigError)
        with pytest.raises(DimensionTooSmall):
            misspec_values("H3", np.zeros((5, 7)), 1.0)

    def test_realdata_r_not_checked_against_config_p(self):
        # the dataset fixes p in realdata mode; the default p=10 must not
        # reject r=8 (run_emse checks r against the dataset instead)
        cfg = ExperimentConfig(mode="realdata", r_list=(8,), methods=("UNIF",))
        assert cfg.r_list == (8,)

    def test_diagnose_is_not_a_mode(self):
        with pytest.raises(ConfigError):
            small_config(mode="diagnose")

    def test_theta_and_methods_checked(self):
        with pytest.raises(ConfigError):
            small_config(theta=50.0)
        with pytest.raises(ConfigError):
            small_config(methods=("UNIF", "NOPE"))

    def test_theta_and_sigma2_stored_as_floats(self):
        cfg = small_config(theta=1, sigma2=10**30)
        assert type(cfg.theta) is float and cfg.theta == 1.0
        assert type(cfg.sigma2) is float and cfg.sigma2 == 1e30
        with pytest.raises(ConfigError, match="sigma2 must be a real number that a float holds"):
            small_config(sigma2=10**400)

    @pytest.mark.parametrize("field", ["n", "p", "replicates"])
    def test_sizes_past_int64_rejected(self, field):
        with pytest.raises(ConfigError, match=f"{field} must fit in int64, got {field}={2**63}$"):
            small_config(**{field: 2**63})

    def test_seed_past_int64_accepted(self):
        assert small_config(seed=10**30).seed == 10**30

    def test_repeated_r_rejected(self):
        # a repeated r would rerun its cells and overwrite their read counts
        with pytest.raises(ConfigError, match="r_list repeats 16"):
            small_config(r_list=(16, 20, 16))

    def test_repeated_method_rejected_after_upper_casing(self):
        with pytest.raises(ConfigError, match="methods repeats 'UNIF'"):
            small_config(methods=("unif", "LOWCON", "UNIF"))

    def test_load_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mode": "simulate", "bogus": 1}')
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "-1"])
    def test_load_rejects_non_finite_sigma2(self, tmp_path, value):
        # Python's json reads these tokens, so the config must reject them:
        # an infinite sigma2 makes every simulated y infinite; a negative
        # one is no variance either
        path = tmp_path / "cfg.json"
        path.write_text('{"mode": "simulate", "n": 300, "p": 4, "sigma2": %s}' % value)
        with pytest.raises(ConfigError, match="sigma2 must be finite and nonnegative"):
            load_config(path)

    @pytest.mark.parametrize("text, message", [
        ('{"mode": "simulate",', "invalid JSON in cfg.json"),
        ('[{"mode": "simulate"}]', "config must be a JSON object"),
    ], ids=["malformed", "array"])
    def test_load_rejects_what_is_not_a_json_object(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_simulate_mode_rejects_the_toy_distribution(self):
        with pytest.raises(ConfigError, match="simulate mode needs dist in"):
            small_config(dist="TOY")

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"mode": "simulate", "dist": "D3", "misspec": "H2", "n": 500,'
            ' "p": 4, "r_list": [20, 30], "replicates": 2, "seed": 7,'
            ' "methods": ["UNIF", "LOWCON"]}'
        )
        cfg = load_config(path)
        assert cfg.dist == "D3" and cfg.r_list == (20, 30)


class TestHiddenResponses:
    def test_counts_every_revealed_entry(self):
        hidden = HiddenResponses(np.arange(10.0))
        out = hidden.reveal([1, 1, 3])
        assert np.array_equal(out, [1.0, 1.0, 3.0])
        assert hidden.reads == 3
        hidden.reveal([0])
        assert hidden.reads == 4

    def test_out_of_range(self):
        hidden = HiddenResponses(np.arange(3.0))
        with pytest.raises(IndexError):
            hidden.reveal([5])

    @pytest.mark.parametrize("indices, dtype", [
        (np.array([True, False, True]), "bool"),
        ([True, False, True], "bool"),
        ([1.9], "float64"),
        (np.array([0.0, 2.0], dtype=np.float32), "float32"),
    ], ids=["bool-array", "bool-list", "float-list", "float32"])
    def test_mask_or_float_indices_rejected_unread(self, indices, dtype):
        hidden = HiddenResponses([10.0, 20.0, 30.0])
        with pytest.raises(ValueError, match=rf"must be integers, got dtype {dtype}$"):
            hidden.reveal(indices)
        assert hidden.reads == 0

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64, np.intp])
    def test_any_integer_dtype_and_empty_accepted(self, dtype):
        hidden = HiddenResponses([10.0, 20.0, 30.0])
        assert np.array_equal(hidden.reveal(np.array([2, 0, 2], dtype=dtype)), [30.0, 10.0, 30.0])
        assert hidden.reveal([]).shape == (0,)
        assert hidden.reads == 3


class TestRunSimulation:
    def test_noiseless_correct_model_is_exact(self):
        res = run_simulation(small_config(sigma2=0.0))
        for row in res.rows:
            assert row.mse <= 1e-16
            assert row.replicate_count == 3

    def test_deterministic_rows(self):
        cfg = small_config(methods=("UNIF", "BLEV", "LOWCON"))
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert a.rows == b.rows

    def test_replicate_order_invariance(self):
        cfg = small_config(replicates=5, methods=("UNIF", "LOWCON"))
        a = run_simulation(cfg)
        b = run_simulation(cfg, _replicate_order=[4, 2, 0, 3, 1])
        assert a.rows == b.rows

    def test_sampler_seed_codes_fixed_and_independent_of_methods(self):
        # each method's sampler stream is keyed by its fixed position in the
        # method table: a reordered table would change every result CSV, and
        # the order or a subset of ``methods`` must change no method's row
        assert harness._METHOD_CODE == {
            "UNIF": 1, "BLEV": 2, "SLEV": 3, "LEVUNW": 4, "IBOSS": 5, "LOWCON": 6}

        def rows(methods):
            res = run_simulation(small_config(r_list=(16, 24), methods=methods))
            return {(row.method, row.r): row for row in res.rows}

        full = rows(harness.METHODS)
        assert len(full) == 12
        assert rows(harness.METHODS[::-1]) == full
        assert rows(("LOWCON", "UNIF")) == {
            key: row for key, row in full.items() if key[0] in ("LOWCON", "UNIF")}

    def test_last_error_message_outside_equality(self):
        # the message comes from whichever failing replicate ran last, so two
        # runs in different replicate orders must still compare equal
        failed = [("rare", "UNIF", 20, "RankDeficient")]
        a = harness.SimulationResult([], {}, failed, "RankDeficient: s_p = 1e-17")
        b = harness.SimulationResult([], {}, failed, "RankDeficient: s_p = 3e-18")
        assert a == b
        assert "s_p" not in repr(a)

    def test_response_reads_exactly_r(self):
        cfg = small_config(replicates=4, r_list=(16, 24))
        res = run_simulation(cfg)
        for (_, _, _, r), counts in res.response_reads.items():
            assert counts == [r] * 4
        emse_cfg = ExperimentConfig(mode="realdata", n=201, p=3, r_list=(16, 24),
                                    replicates=4, seed=11, methods=harness.METHODS)
        res = run_emse(planted_dataset(n=200), emse_cfg)
        assert len(res.response_reads) == len(harness.METHODS) * 2
        for (name, _, r), counts in res.response_reads.items():
            assert name == "planted" and counts == [r] * 4

    def test_rejects_a_realdata_config(self):
        cfg = ExperimentConfig(mode="realdata", n=300, p=4, r_list=(16,))
        with pytest.raises(ConfigError, match="run_simulation expects simulate/toy mode, "
                                              "got realdata"):
            run_simulation(cfg)

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3]],
                             ids=["repeat", "short", "long", "shifted"])
    def test_replicate_order_must_be_a_permutation(self, order):
        with pytest.raises(ValueError, match="_replicate_order must be a permutation"):
            run_simulation(small_config(), _replicate_order=order)

    def test_row_of_a_missing_cell_raises_key_error(self):
        res = run_simulation(small_config(replicates=1, methods=("UNIF",)))
        assert res.row("UNIF", 16).method == "UNIF"
        for args in [("UNIF", 24, None), ("BLEV", 16, None), ("UNIF", 16, "H2")]:
            with pytest.raises(KeyError) as info:
                res.row(*args)
            assert info.value.args == (args,)

    def test_one_hidden_response_vector_per_draw(self, monkeypatch):
        # simulate draws per (r, replicate), and every method reveals from
        # that draw's responses; emse reveals from one per run
        built = []

        class Counted(HiddenResponses):
            def __init__(self, values):
                built.append(len(values))
                super().__init__(values)

        monkeypatch.setattr(harness, "HiddenResponses", Counted)
        res = run_simulation(small_config(replicates=3, r_list=(16, 24)))
        assert built == [300] * 6
        for (_, _, _, r), counts in res.response_reads.items():
            assert counts == [r] * 3
        built.clear()
        cfg = ExperimentConfig(mode="realdata", n=201, p=3, r_list=(16, 24),
                               replicates=4, seed=11, methods=harness.METHODS)
        res = run_emse(planted_dataset(n=200), cfg)
        assert built == [200]
        for (_, _, r), counts in res.response_reads.items():
            assert counts == [r] * 4

    def test_row_sorting(self):
        res = run_simulation(small_config(r_list=(16, 24)))
        keys = [(row.method, row.dist, row.misspec, row.r) for row in res.rows]
        assert keys == sorted(keys)

    def test_toy_mode(self):
        res = run_simulation(toy_config(r_list=(10,), replicates=5, seed=3))
        methods = {row.method for row in res.rows}
        assert methods == {"UNIF", "BLEV", "LOWCON"}
        for row in res.rows:
            assert row.p == 1 and np.isfinite(row.mse)

    def test_toy_magnitudes_near_reference_values(self):
        # r = 10 levels land within +-50% of the reference comparison table
        res = run_simulation(toy_config(r_list=(10,), replicates=100, seed=0))
        reference = {"LOWCON": 0.028, "BLEV": 0.091, "UNIF": 0.148}
        for method, target in reference.items():
            mse = res.row(method, 10).mse
            assert 0.5 * target <= mse <= 1.5 * target, (method, mse)


def planted_dataset(n=400, p=3, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * [1.0, 2.0, 0.5]
    beta = np.array([0.3, 1.0, -2.0, 0.7])
    y = beta[0] + X @ beta[1:] + noise * rng.standard_normal(n)
    return Dataset(name="planted", X_raw=X, y=y)


class TestRunEmse:
    def test_full_sample_unif_reproduces_ols(self):
        data = planted_dataset(n=60)
        cfg = ExperimentConfig(
            mode="realdata", n=61, p=3, r_list=(60,), replicates=2, seed=1,
            methods=("UNIF",),
        )
        res = run_emse(data, cfg)
        row = res.row("UNIF", 60, "EMSE_OLS")
        assert row.mse <= 1e-16

    def test_emse_shrinks_with_r(self):
        cfg_methods = ("UNIF", "BLEV", "LOWCON")
        medians = {m: [] for m in cfg_methods}
        for r in (20, 60, 180):
            per_seed = {m: [] for m in cfg_methods}
            for seed in range(5):
                data = planted_dataset(seed=seed)
                cfg = ExperimentConfig(
                    mode="realdata", n=401, p=3, r_list=(r,), replicates=10,
                    seed=seed, methods=cfg_methods,
                )
                res = run_emse(data, cfg)
                for m in cfg_methods:
                    per_seed[m].append(res.row(m, r, "EMSE_OLS").mse)
            for m in cfg_methods:
                medians[m].append(float(np.median(per_seed[m])))
        for m in cfg_methods:
            assert medians[m][0] > medians[m][1] > medians[m][2]

    def test_non_finite_response_named(self):
        data = planted_dataset(n=100)
        y = data.y.copy()
        y[7] = np.nan
        with pytest.raises(ValueError, match="y entries must be finite"):
            Dataset(name="planted", X_raw=data.X_raw, y=y)

    def test_datasets_compare_and_hash_by_identity(self):
        data = planted_dataset(n=100)
        twin = Dataset(name="planted", X_raw=data.X_raw, y=data.y)
        assert data == data and data != twin
        assert len({data, twin, data}) == 2
        cfg = ExperimentConfig(mode="realdata", n=101, p=3, r_list=(30,),
                               replicates=2, seed=3, methods=("UNIF", "LOWCON"))
        rows = run_emse(data, cfg).rows
        assert rows == run_emse(twin, cfg).rows == run_emse(data, cfg).rows

    def test_reports_both_surrogates(self):
        data = planted_dataset(n=100)
        cfg = ExperimentConfig(
            mode="realdata", n=101, p=3, r_list=(30,), replicates=2, seed=2,
            methods=("UNIF", "IBOSS"),
        )
        res = run_emse(data, cfg)
        tags = {row.misspec for row in res.rows}
        assert tags == {"EMSE_OLS", "EMSE_M"}

    def test_failed_cell_after_retries(self):
        # a 0/1 predictor with 2 ones in 3000 rows: UNIF rarely draws one, so
        # some replicate's fit with an intercept is rank deficient six times
        rng = np.random.default_rng(0)
        a = rng.standard_normal(3000)
        b = (np.arange(3000) < 2).astype(float)
        y = 1.0 + a + b + 0.1 * rng.standard_normal(3000)
        data = Dataset(name="rare", X_raw=np.column_stack([a, b]), y=y)
        cfg = ExperimentConfig(mode="realdata", n=3001, p=2, r_list=(20,),
                               replicates=3, seed=0, methods=("UNIF", "BLEV"))
        res = run_emse(data, cfg)
        assert res.failed_cells == [("rare", "UNIF", 20, "RankDeficient")]
        for tag in ("EMSE_OLS", "EMSE_M"):
            unif = res.row("UNIF", 20, tag)
            assert unif.replicate_count < 3
            assert np.isnan(unif.mse) and np.isnan(unif.log_mse)
            blev = res.row("BLEV", 20, tag)
            assert blev.replicate_count == 3
            assert np.isfinite(blev.mse) and np.isfinite(blev.log_mse)
        assert res.response_reads[("rare", "BLEV", 20)] == [20] * 3
        # every attempt reveals 20: replicates 0 and 1 fail all six attempts,
        # replicate 2 succeeds on its second
        assert res.response_reads[("rare", "UNIF", 20)] == [6 * 20, 6 * 20, 2 * 20]

    def test_degenerate_box_fails_only_its_cell(self):
        # a 0/1 predictor with 5 ones in 1000 rows: its 1st and 99th
        # percentiles coincide, so LOWCON's theta box is degenerate on every
        # replicate, while UNIF's 300-row draws still fit
        rng = np.random.default_rng(2)
        a = rng.standard_normal(1000)
        b = (np.arange(1000) < 5).astype(float)
        y = a + b + 0.1 * rng.standard_normal(1000)
        data = Dataset(name="rare", X_raw=np.column_stack([a, b]), y=y)
        cfg = ExperimentConfig(mode="realdata", r_list=(300,), replicates=2,
                               seed=0, methods=("UNIF", "LOWCON"))
        res = run_emse(data, cfg)
        assert res.failed_cells == [("rare", "LOWCON", 300, "DegenerateBox")]
        for tag in ("EMSE_OLS", "EMSE_M"):
            assert res.row("UNIF", 300, tag).replicate_count == 2
            assert res.row("LOWCON", 300, tag).replicate_count == 0
            assert np.isnan(res.row("LOWCON", 300, tag).mse)
        # the error recurs on the same data, so no replicate is retried
        assert res.response_reads[("rare", "LOWCON", 300)] == [0, 0]
        # the dataset keeps the error: a second run fails the same cells
        # with the same message
        again = run_emse(data, cfg)
        assert again == res
        assert again._last_error == res._last_error
        assert res._last_error.startswith("DegenerateBox: columns [1] have a zero-width")

    def test_response_reads_count_every_attempt(self, tmp_path, monkeypatch):
        # a 0/1 predictor with 30 ones in 3000 rows: a UNIF draw of 40 rows
        # often misses them all, and its rank-deficient fit is retried
        rng = np.random.default_rng(8)
        a = rng.standard_normal(3000)
        b = (rng.permutation(3000) < 30).astype(float)
        y = 1.0 + a + b + 0.1 * rng.standard_normal(3000)
        path = tmp_path / "rare.csv"
        path.write_text("y,a,b\n" + "".join(f"{v},{u},{w}\n" for v, u, w in zip(y, a, b)))
        draw, calls = harness._SAMPLERS["UNIF"], []
        monkeypatch.setitem(harness._SAMPLERS, "UNIF",
                            lambda *args: calls.append(args) or draw(*args))
        cfg = ExperimentConfig(mode="realdata", r_list=(40,), replicates=5,
                               methods=("UNIF",))
        res = run_emse(ingest_csv(path, "y", ["a", "b"]), cfg)
        assert len(calls) > 5  # some replicate was retried
        assert sum(res.response_reads[("rare", "UNIF", 40)]) == 40 * len(calls)

    @pytest.mark.parametrize("rare", [False, True], ids=["good", "rare-column"])
    def test_scaling_and_box_once_per_run(self, monkeypatch, rare):
        # the data of test_degenerate_box_fails_only_its_cell, and the same
        # shape without its rare 0/1 column: every replicate, r and run on
        # one dataset reuses one scaling, one box per theta (or the one
        # DegenerateBox it raised), one leverage SVD, one IBOSS pick per r
        # and one surrogate OLS solve
        rng = np.random.default_rng(2)
        a = rng.standard_normal(1000)
        b = (np.arange(1000) < 5).astype(float) if rare else rng.standard_normal(1000)
        y = a + b + 0.1 * rng.standard_normal(1000)
        data = Dataset(name="rare", X_raw=np.column_stack([a, b]), y=y)
        calls = []
        for module, name in ((samplers, "_scale_rows"), (samplers, "_theta_rows"),
                             (samplers, "leverage_scores"), (samplers, "_iboss"),
                             (harness, "least_squares")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real: calls.append(
                (name, *(v for v in args if np.isscalar(v)))) or real(*args))
        cfg = ExperimentConfig(mode="realdata", r_list=(200, 300), replicates=3,
                               seed=0, methods=harness.METHODS)
        res = run_emse(data, cfg)
        again = run_emse(data, dataclasses.replace(
            cfg, r_list=(400, 300), theta=2.0, seed=1, methods=harness.METHODS[::-1]))
        assert sorted(calls) == [
            ("_iboss", 200), ("_iboss", 300), ("_iboss", 400), ("_scale_rows",),
            ("_theta_rows", 1.0), ("_theta_rows", 2.0), ("least_squares",),
            ("leverage_scores",)]
        for result in (res, again):
            lowcon_failed = [c for c in result.failed_cells if c[1] == "LOWCON"]
            assert len(lowcon_failed) == (2 if rare else 0)

    def test_default_r_grid_from_dataset_p(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((500, 25))
        data = Dataset(name="wide", X_raw=X, y=X.sum(1) + rng.standard_normal(500))
        cfg = ExperimentConfig(mode="realdata", replicates=1, methods=("UNIF", "IBOSS"))
        res = run_emse(data, cfg)
        assert sorted({row.r for row in res.rows}) == [50, 100, 150, 200, 250]

    def test_small_r_on_two_predictor_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((200, 2))
        y = 1.0 + X @ [2.0, -1.0] + 0.1 * rng.standard_normal(200)
        path = tmp_path / "d.csv"
        path.write_text("y,a,b\n" + "".join(f"{v},{a},{b}\n" for v, (a, b) in zip(y, X)))
        data = ingest_csv(path, "y", ["a", "b"])
        methods = ("UNIF", "IBOSS", "LOWCON")
        cfg = ExperimentConfig(mode="realdata", r_list=(8,), replicates=2,
                               methods=methods)
        res = run_emse(data, cfg)
        for m in methods:
            assert res.row(m, 8, "EMSE_OLS").replicate_count == 2
            assert res.response_reads[("d", m, 8)] == [8, 8]

    def test_rerun_on_kept_state_matches_fresh_datasets(self, tmp_path):
        # each run on one dataset gives the rows and CSV bytes the same
        # config gives on a fresh dataset built from copies of the arrays
        data = planted_dataset(n=800)
        cfgs = [
            ExperimentConfig(mode="realdata", r_list=(12, 30), replicates=2,
                             seed=3, methods=harness.METHODS),
            ExperimentConfig(mode="realdata", r_list=(40, 12), replicates=3, theta=5.0,
                             seed=4, methods=harness.METHODS[::-1]),
        ]
        for k, cfg in enumerate(cfgs):
            kept = run_emse(data, cfg)
            fresh = run_emse(Dataset(name="planted", X_raw=data.X_raw.copy(),
                                     y=data.y.copy()), cfg)
            assert kept == fresh
            write_result_csv(kept.rows, tmp_path / f"kept{k}.csv")
            write_result_csv(fresh.rows, tmp_path / f"fresh{k}.csv")
            assert (tmp_path / f"kept{k}.csv").read_bytes() == \
                (tmp_path / f"fresh{k}.csv").read_bytes()

    def test_surrogates_bit_equal_to_direct_fits(self):
        # heavy-tailed noise, so IRLS runs past its first step
        data = soil_like_dataset()
        cfg = ExperimentConfig(mode="realdata", r_list=(20,), replicates=1,
                               methods=("UNIF",))
        run_emse(data, cfg)
        Z = np.column_stack([np.ones(data.X_raw.shape[0]), data.X_raw])
        huber = fit_huber_m(Z, data.y)
        assert huber.iterations > 1
        kept = data._surrogate_fits
        assert np.array_equal(kept["EMSE_OLS"], least_squares(Z, data.y))
        assert np.array_equal(kept["EMSE_M"], huber.beta)

    def test_dataset_is_a_read_only_snapshot(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((300, 2))
        y = X.sum(axis=1) + rng.standard_normal(300)
        X0, y0 = X.copy(), y.copy()
        data = Dataset(name="snap", X_raw=X, y=y)
        for target in (data.X_raw, data.y):
            with pytest.raises(ValueError, match="read-only"):
                target[0] = 1.0
        cfg = ExperimentConfig(mode="realdata", r_list=(20,), replicates=2,
                               methods=harness.METHODS)
        before = run_emse(data, cfg)
        X[:] = 7.0
        y[:] = -3.0
        assert np.array_equal(data.X_raw, X0) and np.array_equal(data.y, y0)
        assert data.X_raw.flags.c_contiguous
        assert run_emse(data, cfg) == before

    @pytest.mark.parametrize("X_raw, y, message", [
        (np.ones(5), None, r"X_raw: expected a 2-d matrix, got shape \(5,\)"),
        (np.ones((2, 3, 1)), None, r"X_raw: expected a 2-d matrix, got shape \(2, 3, 1\)"),
        (np.ones((0, 2)), None, r"X_raw: expected a 2-d matrix, got shape \(0, 2\)"),
        (np.ones((4, 0)), None, r"X_raw: expected a 2-d matrix, got shape \(4, 0\)"),
        ([[1.0, np.nan], [2.0, 3.0]], None, "X_raw: matrix entries must be finite"),
        ([[1.0, np.inf], [2.0, 3.0]], None, "X_raw: matrix entries must be finite"),
        (np.ones((4, 2)), np.ones(3), r"^y has 3 entries, expected 4$"),
        (np.ones((4, 2)), [1.0, 2.0, -np.inf, 0.0], "y entries must be finite"),
    ], ids=["X-1d", "X-3d", "X-no-rows", "X-no-columns", "X-nan", "X-inf",
            "y-short", "y-inf"])
    def test_dataset_rejects_bad_inputs(self, X_raw, y, message):
        with pytest.raises(ValueError, match=message):
            Dataset(name="bad", X_raw=X_raw, y=y)

    def test_requires_response(self):
        data = planted_dataset(n=50)
        data = Dataset(name="x", X_raw=data.X_raw, y=None)
        cfg = ExperimentConfig(mode="realdata", n=51, p=3, r_list=(20,),
                               replicates=1, methods=("UNIF",))
        with pytest.raises(ConfigError):
            run_emse(data, cfg)


class TestDiagnose:
    def test_report_fields(self):
        holds = ExperimentConfig(
            mode="simulate", dist="D1", misspec="H1", n=4000, p=3,
            r_list=(20,), replicates=1, seed=5,
            methods=("UNIF", "IBOSS", "LOWCON"),
        )
        # 25 of 30 rows, no trimming: sp(L) = 2.798 < s1(D) = 3.343
        violated = ExperimentConfig(
            mode="simulate", dist="D1", misspec="H1", n=30, p=8,
            r_list=(25,), replicates=1, seed=0, theta=0.0,
            methods=("UNIF", "LOWCON"),
        )
        for cfg, expect_holds in ((holds, True), (violated, False)):
            entries = diagnose(cfg, alpha=1.0)
            assert [e.method for e in entries] == list(cfg.methods)
            for e in entries:
                assert np.isfinite(e.kappa_sub) and np.isfinite(e.worst_case_bound)
            assert all(e.assumption_holds is None for e in entries[:-1])
            low = entries[-1]
            assert low.assumption_holds is expect_holds
            assert (low.sp_design > low.s1_perturbation) is expect_holds
            if expect_holds:
                assert low.kappa_bound_slack > 0
                assert low.trace_bound_slack > 0
            else:
                assert low.kappa_bound_slack is None
                assert low.trace_bound_slack is None

    def test_bound_is_at_the_config_sigma2(self):
        cfg = ExperimentConfig(
            mode="simulate", dist="D1", misspec="H2", n=4000, p=3,
            r_list=(20, 30), replicates=2, seed=5, sigma2=9.0, methods=harness.METHODS,
        )
        entries = diagnose(cfg, alpha=1.0)
        # replicate 0 at the first r, each method's selection drawn as in the grid
        X, _, _ = harness._simulate_data(cfg, 20, replicate=0, attempt=0)
        for e in entries:
            rng = harness._sampler_rng(cfg.seed, harness._cell_key(cfg), 20, 0, 0, e.method)
            sub = X[harness._SAMPLERS[e.method](X, 20, rng, cfg.theta).indices]
            assert e.r == 20
            assert e.worst_case_bound == worst_case_mse(sub, 9.0, 1.0).bound
            assert e.worst_case_bound > worst_case_mse(sub, 1.0, 1.0).bound

    def test_lowcon_fields_match_eigenvalues(self):
        cfg = ExperimentConfig(
            mode="simulate", dist="D1", misspec="H1", n=4000, p=3,
            r_list=(20,), replicates=1, seed=5, methods=("LOWCON",),
        )
        (low,) = diagnose(cfg, alpha=1.0)
        # the same selection, from diagnose's derived data and sampler seeds
        X, _, _ = harness._simulate_data(cfg, 20, replicate=0, attempt=0)
        rng = harness._sampler_rng(cfg.seed, harness._cell_key(cfg), 20, 0, 0, "LOWCON")
        sel = samplers.lowcon(X, 20, theta=cfg.theta, rng=rng)
        assert sel.diagnostics.kappa_sub == low.kappa_sub
        L, D = sel.design.points, sel.perturbation
        ev_L = np.linalg.eigvalsh(L.T @ L)
        ev_D = np.linalg.eigvalsh(D.T @ D)
        ev_claimed = np.linalg.eigvalsh((L + D).T @ (L + D))
        s1L, spL, s1D = np.sqrt(ev_L[-1]), np.sqrt(ev_L[0]), np.sqrt(ev_D[-1])
        assert low.sp_design == pytest.approx(spL, rel=1e-10)
        assert low.s1_perturbation == pytest.approx(s1D, rel=1e-10)
        kappa_slack = ((s1L + s1D) / (spL - s1D)) ** 2 - ev_claimed[-1] / ev_claimed[0]
        trace_slack = 3 / (spL - s1D) ** 2 - np.sum(1.0 / ev_claimed)
        assert low.kappa_bound_slack == pytest.approx(kappa_slack, rel=1e-10)
        assert low.trace_bound_slack == pytest.approx(trace_slack, rel=1e-10)


def reference_ingest(path, response, predictors):
    """The documented ingestion rules, record by record: ``csv.reader`` for
    the fields and ``float()`` for each selected cell."""
    with open(path, newline="") as fh:
        header, *records = csv.reader(fh)
    at = [max(j for j, name in enumerate(header) if name == column)
          for column in [response, *predictors]]
    rows, dropped = [], 0
    for record in records:
        if not record:  # a blank line
            continue
        try:
            values = [float(record[j]) for j in at]
        except (IndexError, ValueError):  # short or not a number
            dropped += 1
            continue
        if all(math.isfinite(v) for v in values):
            rows.append(values)
        else:
            dropped += 1
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(at))
    return data[:, 1:], data[:, 0], dropped


# (body after the header "y,a,b", predictors). np.loadtxt parses the first
# group in one pass; it rejects a row of each file in the second group, so
# the record loop reads those
INGEST_CORPUS = {
    "quoted": ('"1","2",3\n4,"5","6"\n', ["a", "b"]),
    "quoted-newline": ('"1\n",2,3\n4,5,6\n', ["a"]),
    "crlf": ("1,2,3\r\n4,5,6\r\n", ["b", "a"]),
    "cr-only": ("1,2,3\r4,5,6\r", ["a", "b"]),
    "no-final-newline": ("1,2,3\n4,5,6", ["a"]),
    "blank-lines": ("\n1,2,3\n\n\r\n4,5,6\n\n", ["a", "b"]),
    "long-rows": ("1,2,3,4,5\n6,7,8\n9,10,11,12\n", ["b"]),
    "trailing-commas": ("1,2,3,\n4,5,6,\n", ["a", "b"]),
    "non-finite": ("1,2,3\nInfinity,2,3\n4,nan,6\n7,8,1e400\n-inf,1,1\n9,9,9\n",
                   ["a", "b"]),
    "signed-zero-subnormal": ("-0,4.9e-324,1e-400\n0,-2.2250738585072014e-308,-0.0\n",
                              ["a", "b"]),
    "padded-and-signed": (" 1 , +.5e-3,\t-7.\n.25 ,1E+2 , 3\n", ["a", "b"]),
    "whitespace-only-line": ("1,2,3\n   \n4,5,6\n", ["a", "b"]),
    "hash-led-line": ("1,2,3\n#4,5,6\n7,8,9\n", ["a"]),
    "underscore-digits": ("1_0,2,3\n4,5,6\n", ["a", "b"]),
    "short-row": ("1,2,3\n4,5\n7,8,9\n", ["b"]),
    "na-row": ("1,2,3\nNA,5,6\n7,8,9\n", ["a", "b"]),
    "empty-field": ("1,,3\n4,5,6\n", ["a"]),
    "hex-and-word": ("0x10,2,3\n4,x,6\n7,8,9\n", ["a", "b"]),
    "quoted-comma": ('"1,5",2,3\n4,5,6\n', ["a"]),
}


class TestCsvIngestion:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,b\n1,2,3\n4,5,6\n7,8,9\n")
        data = ingest_csv(path, "y", ["a", "b"])
        assert data.X_raw.shape == (3, 2)
        assert np.array_equal(data.y, [1.0, 4.0, 7.0])
        assert data.dropped_rows == 0

    def test_missing_values_dropped_with_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a\n1,2\n,3\nNA,4\n5,6\n")
        data = ingest_csv(path, "y", ["a"])
        assert data.X_raw.shape == (2, 1)
        assert data.dropped_rows == 2

    def test_blank_short_long_and_non_numeric_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,b\n1,2,3\n\n4,5\n6,7,8,9\n10,x,12\n13,14,15\n")
        data = ingest_csv(path, "y", ["b", "a"])
        # the blank line is no row; the short and the non-numeric rows are
        # dropped; the long row keeps its first three values
        assert np.array_equal(data.X_raw, [[3.0, 2.0], [8.0, 7.0], [15.0, 14.0]])
        assert np.array_equal(data.y, [1.0, 6.0, 13.0])
        assert data.dropped_rows == 2

    def test_column_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a\n1,2\n")
        with pytest.raises(ColumnMissing):
            ingest_csv(path, "y", ["a", "zz"])

    @pytest.mark.parametrize("response, predictors, name", [
        ("y", ["a", "a"], "a"),
        ("y", ["y", "a"], "y"),
        ("y", ["a", "b", "a"], "a"),
    ], ids=["predictor-twice", "response-as-predictor", "predictor-apart"])
    def test_column_named_twice(self, tmp_path, response, predictors, name):
        path = tmp_path / "d.csv"
        path.write_text("y,a,b\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(ConfigError, match=f"repeat column '{name}'$"):
            ingest_csv(path, response, predictors)

    @pytest.mark.parametrize("header, predictors", [("y,a,b", "ab"), ("y,x1", "x1")],
                             ids=["letters-are-columns", "name-is-a-column"])
    def test_predictor_string_is_no_column_list(self, tmp_path, header, predictors):
        # list("ab") would read columns a and b; list("x1") columns x and 1
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + "1," * header.count(",") + "2\n")
        with pytest.raises(ConfigError, match=f"got the string '{predictors}'$"):
            ingest_csv(path, "y", predictors)

    def test_empty_after_filtering(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a\nfoo,bar\n")
        with pytest.raises(EmptyAfterFiltering):
            ingest_csv(path, "y", ["a"])

    def test_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_csv(tmp_path / "nope.csv", "y", ["a"])

    # a field past the csv module's limit (131072 characters): in a data row
    # that the record-by-record pass reads (the NA row sends the file there),
    # and in the header
    @pytest.mark.parametrize("text", [
        "y,a\n1,1" + "0" * 200_000 + "\nNA,4\n3,4\n",
        "y,a," + "z" * 200_000 + "\n1,2,3\n",
    ], ids=["long-field-in-a-row", "long-field-in-the-header"])
    def test_field_past_the_csv_limit_is_a_data_error(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=r"d\.csv: field larger than field limit"):
            ingest_csv(path, "y", ["a"])

    @pytest.mark.parametrize("name", sorted(INGEST_CORPUS))
    def test_matches_reference_bit_for_bit(self, tmp_path, name):
        body, predictors = INGEST_CORPUS[name]
        path = tmp_path / "d.csv"
        path.write_bytes(("y,a,b\n" + body).encode())
        data = ingest_csv(path, "y", predictors)
        X, y, dropped = reference_ingest(path, "y", predictors)
        assert data.X_raw.shape == X.shape and data.X_raw.tobytes() == X.tobytes()
        assert data.y.shape == y.shape and data.y.tobytes() == y.tobytes()
        assert data.dropped_rows == dropped

    def test_quoted_and_repeated_header_names(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'"y","a,b",a,a\r\n1,2,3,4\r\n5,6,7,8\r\n')
        data = ingest_csv(path, "y", ["a,b", "a"])  # "a" is its last column
        X, y, dropped = reference_ingest(path, "y", ["a,b", "a"])
        assert np.array_equal(data.X_raw, [[2.0, 4.0], [6.0, 8.0]])
        assert data.X_raw.tobytes() == X.tobytes() and data.y.tobytes() == y.tobytes()
        assert data.dropped_rows == dropped == 0

    def test_one_droppable_row_only_adds_to_the_count(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = [",".join(repr(float(v)) for v in row)
                 for row in rng.standard_normal((300, 3)) * 1e3]
        clean, marred = tmp_path / "clean.csv", tmp_path / "marred.csv"
        clean.write_text("y,a,b\n" + "\n".join(lines) + "\n")
        marred.write_text("y,a,b\n" + "\n".join(lines[:150] + ["NA,1,2"] + lines[150:])
                          + "\n")
        fast, loop = (ingest_csv(p, "y", ["b", "a"]) for p in (clean, marred))
        assert fast.X_raw.tobytes() == loop.X_raw.tobytes()
        assert fast.y.tobytes() == loop.y.tobytes()
        assert (fast.dropped_rows, loop.dropped_rows) == (0, 1)

    @pytest.mark.parametrize("text", ["y,a\n", "y,a", "y,a\n\n\r\n\n"],
                             ids=["header-only", "header-no-newline", "blank-lines"])
    def test_no_rows_raises_without_a_warning(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyAfterFiltering):
                ingest_csv(path, "y", ["a"])

    def test_round_trip_bit_equal(self, tmp_path):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 2))
        y = rng.standard_normal(20)
        path = tmp_path / "rt.csv"
        with path.open("w") as fh:
            fh.write("resp,u,v\n")
            for yi, (u, v) in zip(y, X):
                fh.write(f"{float(yi)!r},{float(u)!r},{float(v)!r}\n")
        data = ingest_csv(path, "resp", ["u", "v"])
        assert np.array_equal(data.X_raw, X)
        assert np.array_equal(data.y, y)


class TestCsvOutput:
    def test_byte_identical_and_fixed_header(self, tmp_path):
        cfg = small_config(methods=("UNIF", "LOWCON"))
        rows = run_simulation(cfg).rows
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_result_csv(rows, p1)
        write_result_csv(run_simulation(cfg).rows, p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        header = b1.split(b"\r\n", 1)[0].decode()
        assert header == (
            "method,dist,misspec,n,p,r,theta,replicate_count,mse,log_mse,"
            "median_kappa"
        )
