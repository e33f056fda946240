import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lowcon
from lowcon import designs
from lowcon.cli import main


@pytest.fixture
def sim_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "mode": "simulate",
        "dist": "D1",
        "misspec": "H1",
        "n": 200,
        "p": 3,
        "r_list": [12],
        "replicates": 2,
        "seed": 4,
        "methods": ["UNIF", "LOWCON"],
    }))
    return path


def test_simulate_writes_csv(sim_config, tmp_path, capsys):
    out = tmp_path / "res.csv"
    code = main(["simulate", "--config", str(sim_config), "--out", str(out)])
    assert code == 0
    assert out.exists()
    text = out.read_text()
    assert text.startswith("method,dist,misspec,")
    assert "LOWCON" in capsys.readouterr().out


def test_simulate_is_reproducible(sim_config, tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["simulate", "--config", str(sim_config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(sim_config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_output_dir_override(sim_config, tmp_path, monkeypatch):
    target = tmp_path / "redirected"
    monkeypatch.setenv("LOWCON_OUTPUT_DIR", str(target))
    code = main(["simulate", "--config", str(sim_config), "--out", "res.csv"])
    assert code == 0
    assert (target / "res.csv").exists()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "simulate", "unknown_key": true}')
    assert main(["simulate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("field, value", [
    ("n", 300.5), ("r_list", 20), ("replicates", "2"), ("seed", 1.5),
    ("seed", -1), ("theta", None), ("r_list", [20.7]), ("dist", ["D1"]),
    ("output_path", 5), ("sigma2", float("inf")),
], ids=["float-n", "scalar-r_list", "string-replicates", "float-seed",
        "negative-seed", "null-theta", "float-r", "list-dist", "number-output_path",
        "infinite-sigma2"])
def test_badly_typed_config_exit_code(sim_config, capsys, field, value):
    raw = json.loads(sim_config.read_text())
    raw[field] = value
    sim_config.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(sim_config)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert field in err[0] and captured.out == ""


def test_missing_config_file_exit_code(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_emse_runs_and_reports(tmp_path, capsys):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((80, 2))
    y = 1.0 + X @ [2.0, -1.0] + 0.1 * rng.standard_normal(80)
    data = tmp_path / "data.csv"
    with data.open("w") as fh:
        fh.write("y,a,b\n")
        for yi, (a, b) in zip(y, X):
            fh.write(f"{yi},{a},{b}\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "realdata",
        "r_list": [20],
        "replicates": 2,
        "seed": 1,
        "methods": ["UNIF", "BLEV"],
    }))
    code = main([
        "emse", "--config", str(cfg), "--data", str(data),
        "--response", "y", "--predictors", "a,b",
    ])
    assert code == 0
    assert "EMSE_OLS" in capsys.readouterr().out


def test_emse_missing_data_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"mode": "realdata", "p": 1, "r_list": [10], "replicates": 1}')
    code = main([
        "emse", "--config", str(cfg), "--data", str(tmp_path / "no.csv"),
        "--response", "y", "--predictors", "a",
    ])
    assert code == 3


def test_toy_prints_three_methods(capsys):
    code = main(["toy", "--r", "10", "--seed", "2", "--replicates", "3"])
    assert code == 0
    out = capsys.readouterr().out
    for m in ("UNIF", "BLEV", "LOWCON"):
        assert m in out


def test_diagnose_prints_assumption(tmp_path, capsys):
    holds = {"n": 2000, "p": 3, "r_list": [15], "seed": 6}
    violated = {"n": 30, "p": 8, "r_list": [25], "seed": 0, "theta": 0.0}
    for grid, expected in ((holds, "assumption=ok"), (violated, "assumption=violated")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "simulate",
            "dist": "D1",
            "misspec": "H1",
            **grid,
            "replicates": 1,
            "methods": ["UNIF", "LOWCON"],
        }))
        code = main(["diagnose", "--config", str(cfg), "--alpha", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst_case" in out
        (low,) = [line for line in out.splitlines() if line.startswith("LOWCON")]
        assert expected in low
        assert ("kappa_slack=" in low) is (expected == "assumption=ok")


def test_diagnose_rejects_realdata_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "realdata", "n": 400, "p": 3, "methods": ["UNIF", "IBOSS"],
    }))
    code = main(["diagnose", "--config", str(cfg), "--alpha", "1.0"])
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "realdata" in err[0] and captured.out == ""


def test_emse_rejects_simulate_config(tmp_path, capsys):
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 100))
    data = tmp_path / "data.csv"
    _write_csv(data, ["y", "a", "b"], [a - b + 0.1 * rng.standard_normal(100), a, b])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "simulate", "r_list": [20], "replicates": 1, "methods": ["UNIF"],
    }))
    code = main(["emse", "--config", str(cfg), "--data", str(data),
                 "--response", "y", "--predictors", "a,b"])
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "simulate" in err[0] and "EMSE_OLS" not in captured.out


def test_olhd_prints_design(capsys):
    code = main(["olhd", "--r", "9", "--p", "2", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("kappa=")
    assert len(out) == 10  # header plus nine design rows
    kappa = float(out[0].split()[0].split("=")[1])
    assert kappa <= 1.13


def test_misspec_needing_more_dimensions_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "simulate", "dist": "D1", "misspec": "H3", "n": 200, "p": 5,
        "r_list": [12], "replicates": 1,
    }))
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "H3" in err and "p=5" in err


def test_toy_config_naming_other_data_exit_code(tmp_path, capsys):
    # toy mode draws one predictor, so a config naming D2/H3 with p = 9
    # would label toy rows with a distribution and shape they never used
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "toy", "dist": "D2", "misspec": "H3", "n": 300, "p": 9,
        "r_list": [20], "replicates": 1, "methods": ["UNIF"],
    }))
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "'D2'" in err[0] and "'H3'" in err[0] and captured.out == ""


def test_infeasible_design_exit_code(capsys):
    assert main(["olhd", "--r", "3", "--p", "5"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_descent_past_memory_bound_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(designs, "_MAX_D2_BYTES", 8 * 40 * 40 - 1)
    assert main(["olhd", "--r", "40", "--p", "10"]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "r=40" in err[0]
    assert captured.out == ""


# 10**15 rows ask numpy for petabytes, past a 47-bit address space, so the
# first array is refused at once whatever the host's overcommit setting
HUGE = 10**15


def test_olhd_past_memory_exit_code(capsys):
    assert main(["olhd", "--r", str(HUGE), "--p", "2"]) == 2
    captured = _single_error_line(capsys, "config error: olhd ran out of memory:")
    assert "Unable to allocate" in captured.err and captured.out == ""


def test_simulate_past_memory_exit_code(sim_config, tmp_path, capsys):
    raw = json.loads(sim_config.read_text())
    raw["n"] = HUGE
    sim_config.write_text(json.dumps(raw))
    out = tmp_path / "res.csv"
    assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 2
    captured = _single_error_line(capsys, "config error: simulate ran out of memory:")
    assert "Unable to allocate" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("r, p, flag", [("5", "0", "--p"), ("5", "-1", "--p"),
                                        ("1", "1", "--r"), ("0", "3", "--r"),
                                        ("5", "2", "--seed")])
def test_olhd_out_of_range_exit_code(r, p, flag, capsys):
    seed = "-1" if flag == "--seed" else "0"
    assert main(["olhd", "--r", r, "--p", p, "--seed", seed]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and flag in err[0]


def test_reader_closing_stdout_exits_0_quietly():
    # ``lowcon olhd --r 20000 --p 2 | head -1``: 340 kB of output, so the
    # writes after the reader has gone fail with a broken pipe
    src = str(Path(lowcon.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "lowcon.cli", "olhd", "--r", "20000", "--p", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"kappa=")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def _write_csv(path, header, columns):
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _emse_args(tmp_path, data, methods):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "realdata", "r_list": [20], "replicates": 1, "seed": 1,
        "methods": methods,
    }))
    return ["emse", "--config", str(cfg), "--data", str(data),
            "--response", "y", "--predictors", "a,b"]


def test_degenerate_theta_box_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(2)
    a = rng.standard_normal(1000)
    b = (np.arange(1000) < 5).astype(float)  # 0/1 column with 0.5% ones
    y = a + b + 0.1 * rng.standard_normal(1000)
    data = tmp_path / "data.csv"
    _write_csv(data, ["y", "a", "b"], [y, a, b])
    out = tmp_path / "res.csv"
    args = _emse_args(tmp_path, data, ["LOWCON"]) + ["--out", str(out)]
    assert main(args) == 4
    assert out.read_text().startswith("method,dist,misspec,")
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("failed cells:") and "DegenerateBox" in err[0]
    assert "columns [1]" in err[0]


def test_other_package_error_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(100)
    y = a + 0.1 * rng.standard_normal(100)
    data = tmp_path / "data.csv"
    _write_csv(data, ["y", "a", "b"], [y, a, 2.0 * a])  # collinear predictors
    assert main(_emse_args(tmp_path, data, ["UNIF"])) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical error:")


@pytest.mark.parametrize("predictors, name", [("a,a", "a"), ("y,a", "y")],
                         ids=["predictor-twice", "response-as-predictor"])
def test_emse_column_named_twice_exit_code(tmp_path, capsys, predictors, name):
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 100))
    data = tmp_path / "data.csv"
    _write_csv(data, ["y", "a", "b"], [a + b, a, b])
    args = _emse_args(tmp_path, data, ["UNIF"])
    args[-1] = predictors
    assert main(args) == 2
    err = _single_error_line(capsys, "config error:").err
    assert f"repeat column '{name}'" in err


@pytest.mark.parametrize("n_pred, r, method, need", [
    (2, 60, "LOWCON", "r < n"),
    (30, 25, "LOWCON", "r > p"),
    (30, 40, "IBOSS", "r >= 2p"),
], ids=["lowcon-r-equals-n", "lowcon-r-below-p", "iboss-r-below-2p"])
def test_emse_r_out_of_range_for_dataset_exit_code(tmp_path, capsys, n_pred, r,
                                                   method, need):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, n_pred))
    y = X.sum(axis=1) + 0.1 * rng.standard_normal(60)
    names = [f"x{j}" for j in range(n_pred)]
    data = tmp_path / "data.csv"
    _write_csv(data, ["y"] + names, [y] + list(X.T))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "realdata", "r_list": [r], "replicates": 1, "methods": [method],
    }))
    code = main(["emse", "--config", str(cfg), "--data", str(data),
                 "--response", "y", "--predictors", ",".join(names)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:")
    assert need in err[0] and f"r={r}" in err[0] and "n=60" in err[0]


def _single_error_line(capsys, prefix):
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return captured


def test_config_directory_exit_code(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path)]) == 2
    _single_error_line(capsys, "config error:")


def test_config_not_utf8_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe" + '{"mode": "simulate"}'.encode("utf-16-le"))
    assert main(["simulate", "--config", str(cfg)]) == 2
    _single_error_line(capsys, "config error:")


def test_emse_data_directory_exit_code(tmp_path, capsys):
    args = _emse_args(tmp_path, tmp_path, ["UNIF"])
    assert main(args) == 3
    _single_error_line(capsys, "data error:")


def test_emse_data_not_utf8_exit_code(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes(b"\xff\xfe" + "y,a,b\n1,2,3\n".encode("utf-16-le"))
    assert main(_emse_args(tmp_path, data, ["UNIF"])) == 3
    _single_error_line(capsys, "data error:")


def test_emse_field_past_the_csv_limit_exit_code(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("y,a\n1,1" + "0" * 200_000 + "\nNA,4\n3,4\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "realdata", "r_list": [2], "replicates": 1,
                               "methods": ["UNIF"]}))
    argv = ["emse", "--config", str(cfg), "--data", str(data),
            "--response", "y", "--predictors", "a"]
    assert main(argv) == 3
    err = _single_error_line(capsys, "data error:").err
    assert "data.csv" in err and "field larger than field limit" in err


def test_simulate_out_directory_exit_code(sim_config, tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    assert main(["simulate", "--config", str(sim_config), "--out", str(out)]) == 3
    # the output path is checked before the grid runs, so no row is printed
    assert _single_error_line(capsys, "data error:").out == ""


@pytest.mark.parametrize("existing", [True, False])
def test_out_check_leaves_no_trace_when_run_fails(tmp_path, capsys, existing):
    # r=20 on a 10-row dataset passes the config checks and fails in the run
    data = tmp_path / "data.csv"
    _write_csv(data, ["y", "a", "b"], [np.arange(10.0), np.arange(10.0) ** 2,
                                       np.sin(np.arange(10.0))])
    out = tmp_path / "res.csv"
    if existing:
        out.write_bytes(b"keep me\r\n")
    args = _emse_args(tmp_path, data, ["UNIF"]) + ["--out", str(out)]
    assert main(args) == 2
    _single_error_line(capsys, "config error:")
    if existing:
        assert out.read_bytes() == b"keep me\r\n"
    else:
        assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "0"), ("--alpha", "-1"), ("--alpha", "nan"), ("--alpha", "inf"),
])
def test_diagnose_bad_flag_exit_code(sim_config, capsys, flag, value):
    assert main(["diagnose", "--config", str(sim_config), flag, value]) == 2
    captured = _single_error_line(capsys, "config error:")
    assert flag.lstrip("-") in captured.err and captured.out == ""


def test_diagnose_takes_sigma2_from_the_config(sim_config):
    # the noise level is the config's sigma2; there is no second one to pass
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "--config", str(sim_config), "--alpha", "1", "--sigma2", "1"])
    assert exc.value.code == 2


def test_diagnose_rank_deficient_selection_prints_inf_bound(tmp_path, capsys):
    # BLEV draws rows [11, 11, 12, 11], rank 2 of 3: its bound is inf, and
    # every method still prints
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "simulate", "dist": "D1", "misspec": "H1", "n": 20, "p": 3,
        "r_list": [4], "replicates": 1, "seed": 18, "methods": ["BLEV", "UNIF"],
    }))
    assert main(["diagnose", "--config", str(cfg), "--alpha", "1"]) == 0
    captured = capsys.readouterr()
    blev, unif = captured.out.strip().splitlines()
    assert captured.err == ""
    assert blev.startswith("BLEV ") and "kappa=inf" in blev and "worst_case=inf" in blev
    assert unif.startswith("UNIF ") and "worst_case=inf" not in unif


def test_diagnose_huge_alpha_prints_inf_bound(sim_config, capsys):
    # alpha**2 is past the float range: the bound is inf, not a traceback
    assert main(["diagnose", "--config", str(sim_config),
                 "--alpha", "1e200"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 2 and captured.err == ""
    assert all("worst_case=inf" in line.split() for line in lines)


BIG = 10**30  # past int64
BAD_VALUES = [None, True, "x", -1, 0, float("nan"), float("inf"), float("-inf"),
              [], [[1]], BIG]


@pytest.mark.parametrize("field", [
    "mode", "dist", "misspec", "n", "p", "r_list", "theta", "sigma2", "replicates",
    "seed", "methods", "output_path",
])
def test_bad_config_values_exit_0_or_2_with_one_line(sim_config, tmp_path, capsys, field):
    raw = json.loads(sim_config.read_text())
    raw.update(theta=1.0, sigma2=1.0, output_path=None)
    for value in BAD_VALUES:
        raw[field] = value
        sim_config.write_text(json.dumps(raw))
        for argv in (["simulate", "--config", str(sim_config), "--out", str(tmp_path / "o.csv")],
                     ["diagnose", "--config", str(sim_config), "--alpha", "1"]):
            code = main(argv)
            err = capsys.readouterr().err.strip().splitlines()
            assert code in (0, 2), (argv[0], value, code, err)
            assert len(err) == (code == 2), (argv[0], value, err)
            assert code == 0 or err[0].startswith("config error:"), (argv[0], value, err)


@pytest.mark.parametrize("argv, message", [
    (["--r", str(BIG), "--p", "2"], f"r must fit in int64, got r={BIG}"),
    (["--r", "10", "--p", str(BIG)], f"p must fit in int64, got p={BIG}"),
    (["--r", str(2**62), "--p", "2"], "olhd: "),  # past numpy's array size limit
], ids=["r", "p", "r-past-numpy"])
def test_olhd_past_int64_exit_code(argv, message, capsys):
    assert main(["olhd"] + argv) == 2
    captured = _single_error_line(capsys, "config error: olhd: ")
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("n, p", [(2**62, 3), (2**60, 10)])
@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_sample_past_numpy_size_limit_exit_code(sim_config, tmp_path, capsys, command, n, p):
    raw = json.loads(sim_config.read_text())
    sim_config.write_text(json.dumps({**raw, "n": n, "p": p, "r_list": [4 * p]}))
    argv = {"simulate": ["--out", str(tmp_path / "o.csv")], "diagnose": ["--alpha", "1"]}
    assert main([command, "--config", str(sim_config)] + argv[command]) == 2
    captured = _single_error_line(capsys, "config error:")
    assert f"n={n} and p={p}" in captured.err and captured.out == ""


def test_olhd_seed_past_int64_runs(capsys):
    assert main(["olhd", "--r", "9", "--p", "2", "--seed", str(BIG)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10


@pytest.mark.parametrize("flag, code", [("--r", 2), ("--replicates", 2), ("--seed", 0)])
def test_toy_past_int64(flag, code, capsys):
    argv = {"--r": "10", "--replicates": "2", "--seed": "0"}
    argv[flag] = str(BIG)
    assert main(["toy"] + [a for kv in argv.items() for a in kv]) == code
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    if code:
        assert len(err) == 1 and err[0].startswith("config error:") and str(BIG) in err[0]
    else:
        assert err == [] and "LOWCON" in captured.out


@pytest.mark.parametrize("field, value, code", [
    ("n", BIG, 2), ("replicates", BIG, 2), ("r_list", [BIG], 2), ("theta", 10**400, 2),
    ("seed", BIG, 0),
])
def test_emse_past_int64(tmp_path, capsys, field, value, code):
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 80))
    data = tmp_path / "data.csv"
    _write_csv(data, ["y", "a", "b"], [a - b, a, b])
    args = _emse_args(tmp_path, data, ["UNIF", "LOWCON"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), field: value}))
    assert main(args) == code
    err = capsys.readouterr().err.strip().splitlines()
    if code:
        assert len(err) == 1 and err[0].startswith("config error:") and field in err[0]
    else:
        assert err == []


@pytest.mark.parametrize("text, message", [
    ('{"mode": "simulate",', "invalid JSON in cfg.json"),
    ('[{"mode": "simulate"}]', "config must be a JSON object"),
], ids=["malformed", "array"])
@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_config_not_a_json_object_exit_code(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)] + (["--alpha", "1"] if command == "diagnose" else [])
    assert main(argv) == 2
    captured = _single_error_line(capsys, "config error:")
    assert message in captured.err and captured.out == ""


def test_emse_predictors_naming_no_column_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 80))
    data = tmp_path / "data.csv"
    _write_csv(data, ["y", "a", "b"], [a - b, a, b])
    args = _emse_args(tmp_path, data, ["UNIF"])
    args[args.index("a,b")] = ","
    assert main(args) == 2
    err = _single_error_line(capsys, "config error:").err
    assert "--predictors must name at least one column" in err


def test_emse_prints_the_dropped_row_count(tmp_path, capsys):
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, 80))
    data = tmp_path / "data.csv"
    _write_csv(data, ["y", "a", "b"], [a - b, a, b])
    with data.open("a") as fh:
        fh.write("NA,1.0,2.0\n1.0,,2.0\n")
    assert main(_emse_args(tmp_path, data, ["UNIF"])) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "dropped 2 incomplete rows"
    assert captured.err == ""


def test_emse_column_scaled_by_1e307_exit_code(tmp_path, capsys):
    # the full-sample surrogate fit of the intercept design falls under the
    # rank rule (RANK_RTOL), so the run stops before any cell
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((2, 80))
    data = tmp_path / "data.csv"
    _write_csv(data, ["y", "a", "b"], [a - b, a, 1e307 * b])
    assert main(_emse_args(tmp_path, data, ["UNIF", "LOWCON"])) == 4
    captured = _single_error_line(capsys, "numerical error: RankDeficient:")
    assert captured.out == ""
