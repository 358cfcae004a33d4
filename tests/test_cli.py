"""Command-line interface: exit codes and the fit/predict/verify flows."""

import numpy as np
import pytest

from smtl.cli import main
from smtl.oracles import OracleReport


def write_csv(path, seed=0, n_tasks=3, n_per_task=8, d=2):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, n_tasks))
    lines = ["task,y," + ",".join("x%d" % (j + 1) for j in range(d))]
    for t in range(n_tasks):
        for _ in range(n_per_task):
            x = rng.standard_normal(d)
            y = x @ w[:, t] + 0.05 * rng.standard_normal()
            lines.append("%d,%.17g," % (t, y)
                         + ",".join("%.17g" % v for v in x))
    path.write_text("\n".join(lines) + "\n")


def test_fit_then_predict(tmp_path, capsys):
    data = tmp_path / "train.csv"
    write_csv(data)
    model = tmp_path / "model.txt"
    assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
    assert model.exists()

    out = tmp_path / "pred.csv"
    code = main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(out), "--nmse"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "task,pred"
    assert len(lines) == 1 + 24
    captured = capsys.readouterr()
    assert "nmse" in captured.out
    val = float(captured.out.strip().rsplit(" ", 1)[-1])
    assert 0.0 <= val < 1.0  # signal clearly beats the mean baseline


def test_fit_with_config(tmp_path):
    data = tmp_path / "train.csv"
    write_csv(data, seed=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "kernel.type = gaussian\nkernel.gamma = 0.5\n"
        "penalty.type = trace_one\nlambda = 0.05\nmax_iter = 30\n"
    )
    model = tmp_path / "model.txt"
    assert main(["fit", "--data", str(data), "--out", str(model),
                 "--config", str(cfg)]) == 0
    assert "kind gaussian" in model.read_text()


def test_missing_data_file_is_data_error(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "m.txt")]) == 2


def test_malformed_csv_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("task,y,x1\n0,1.0,spam\n1,0.5,0.2\n")
    assert main(["fit", "--data", str(bad),
                 "--out", str(tmp_path / "m.txt")]) == 2


def test_model_data_dimension_mismatch(tmp_path):
    data = tmp_path / "train.csv"
    write_csv(data, d=2)
    model = tmp_path / "model.txt"
    assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
    wide = tmp_path / "wide.csv"
    write_csv(wide, d=3)
    assert main(["predict", "--model", str(model), "--data", str(wide),
                 "--out", str(tmp_path / "p.csv")]) == 2


def test_predict_task_beyond_model_is_data_error(tmp_path, capsys):
    # a test task id >= the model's T is refused before --out is opened
    data = tmp_path / "train.csv"
    write_csv(data, n_tasks=2)
    model = tmp_path / "model.txt"
    assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
    more = tmp_path / "more.csv"
    write_csv(more, seed=3, n_tasks=3)
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model), "--data", str(more),
                 "--out", str(out), "--nmse"]) == 2
    assert not out.exists()
    assert "task 2" in capsys.readouterr().err


@pytest.mark.parametrize("far_id", [10 ** 8, 10 ** 12, 10 ** 20])
@pytest.mark.parametrize("command", ["fit", "predict"])
def test_task_id_past_the_row_count_is_empty_task(tmp_path, capsys, command,
                                                  far_id):
    # ids {0, 0, far_id} leave task 1 without rows, however far the last id
    # (10**12 would size a 7 TiB count array, 10**20 overflows int64)
    data = tmp_path / "far.csv"
    data.write_text("task,y,x1\n0,1.0,2.0\n0,0.5,1.0\n%d,1.0,3.0\n"
                    % far_id)
    model = tmp_path / "model.txt"
    if command == "predict":
        write_csv(tmp_path / "train.csv", n_tasks=2)
        assert main(["fit", "--data", str(tmp_path / "train.csv"),
                     "--out", str(model)]) == 0
        capsys.readouterr()
    args = {"fit": ["fit", "--data", str(data), "--out", str(model)],
            "predict": ["predict", "--model", str(model), "--data", str(data),
                        "--out", str(tmp_path / "p.csv")]}[command]
    assert main(args) == 2
    assert capsys.readouterr().err == ("smtl %s: task 1 has no data rows\n"
                                       % command)


@pytest.mark.parametrize("kind", ["gaussian", "linear"])
def test_model_without_training_rows_is_parse_error(tmp_path, capsys, kind):
    # fit never writes n = 0; such a file would divide by zero (gaussian) or
    # predict all zeros (linear), so load_model refuses it at [X]'s header
    data = tmp_path / "test.csv"
    write_csv(data, n_tasks=1)
    model = tmp_path / "model.txt"
    model.write_text("SMTL-MODEL v1\n[kernel]\nkind %s\ngamma 0.5\n"
                     "[X] 0 2\n[C] 0 1\n[A] 1 1\n1\n" % kind)
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "smtl predict: line 5: [X] has no rows, a model needs one\n")


def test_model_with_content_after_structure_is_parse_error(tmp_path,
                                                           capsys):
    data = tmp_path / "train.csv"
    write_csv(data)
    model = tmp_path / "model.txt"
    assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
    n_lines = len(model.read_text().rstrip("\n").split("\n"))
    with open(model, "a") as fh:
        fh.write("garbage line\n[X] 1 1\n3\n")
    capsys.readouterr()
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "smtl predict: line %d: unexpected 'garbage line' after the [A] "
        "block\n" % (n_lines + 1))


@pytest.mark.parametrize("rows", ["0,1.0\n0,0.5\n", "0,1.0\n1,0.5\n"],
                         ids=["one_task", "two_tasks"])
def test_csv_without_feature_columns_is_data_error(tmp_path, capsys, rows):
    # header task,y names no feature, so there is no kernel to fit with;
    # the fit is refused before a Gram matrix exists, on either route
    data = tmp_path / "nofeatures.csv"
    data.write_text("task,y\n" + rows)
    model = tmp_path / "model.txt"
    assert main(["fit", "--data", str(data), "--out", str(model)]) == 2
    assert not model.exists()
    assert capsys.readouterr().err == (
        "smtl fit: training inputs have no feature columns, a kernel needs "
        "one\n")


def test_predict_fewer_tasks_than_model_is_scored(tmp_path, capsys):
    data = tmp_path / "train.csv"
    write_csv(data, n_tasks=2)
    model = tmp_path / "model.txt"
    assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
    fewer = tmp_path / "fewer.csv"
    write_csv(fewer, seed=3, n_tasks=1)
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model), "--data", str(fewer),
                 "--out", str(out), "--nmse"]) == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 8
    val = float(capsys.readouterr().out.strip().rsplit(" ", 1)[-1])
    assert np.isfinite(val)


def test_rejected_config_value_is_config_error(tmp_path):
    # the parser rejects non-finite values, lambda and ridge; the kernel
    # and the solver config refuse theirs as they are set, and the penalty
    # builder, the task count and the delta ladder's length theirs when
    # the config is built. None may reach the solver
    data = tmp_path / "train.csv"
    write_csv(data, seed=2)
    cfg = tmp_path / "run.cfg"
    for text in ("delta = 0.0", "lambda = 0", "ridge = -1", "lambda = inf",
                 "delta = inf", "kernel.type = gaussian\nkernel.gamma = inf",
                 "penalty.mu = inf", "penalty.type = cluster\npenalty.r = 0",
                 "penalty.type = cluster\npenalty.r = 5",
                 "penalty.type = cluster\npenalty.eps_w = -1",
                 "penalty.type = cluster\npenalty.eps_m = 1\n"
                 "penalty.eps_b = 2\npenalty.eps_w = 0.5",
                 "penalty.p = 0.5", "mode = foo",
                 "max_iter = 5\ndelta.schedule = geometric\ndelta = 1\n"
                 "delta.factor = 0.5\ndelta.floor = 1e-6"):
        cfg.write_text(text + "\n")
        assert main(["fit", "--data", str(data),
                     "--out", str(tmp_path / "m.txt"),
                     "--config", str(cfg)]) == 2, text


def test_fit_all_zero_targets(tmp_path, capsys):
    """A long CSV takes the one-hot route; zero targets give a zero
    right-hand side, which the solve must handle without 0/0."""
    data = tmp_path / "zeros.csv"
    rng = np.random.default_rng(3)
    data.write_text("task,y,x1,x2\n" + "".join(
        "%d,0,%.17g,%.17g\n" % (t, *rng.standard_normal(2))
        for t in range(3) for _ in range(8)))
    model = tmp_path / "m.txt"
    assert main(["fit", "--data", str(data), "--out", str(model)]) == 0
    assert "numerical failure" not in capsys.readouterr().err
    assert model.exists()


def test_numerical_failure_exit_code(tmp_path, capsys):
    # targets near the double overflow threshold blow up the squared loss
    data = tmp_path / "huge.csv"
    data.write_text(
        "task,y,x1\n"
        "0,1e200,0.1\n0,-1e200,0.4\n1,1e200,-0.3\n1,-1e200,0.2\n"
    )
    assert main(["fit", "--data", str(data),
                 "--out", str(tmp_path / "m.txt")]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["linear", "gaussian"])
def test_input_whose_squared_norm_overflows_is_named(tmp_path, capsys,
                                                      kernel):
    data = tmp_path / "huge.csv"
    write_csv(data)
    lines = data.read_text().split("\n")
    lines[5] = lines[5].rsplit(",", 1)[0] + ",1e200"  # row 4, line 6
    data.write_text("\n".join(lines))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel.type = %s\n" % kernel)
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.txt"),
                 "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "smtl fit: numerical failure: training input row 4: its squared norm "
        "x.x overflows in the %s kernel\n" % kernel)


def test_singular_one_hot_system_exit_code(tmp_path, capsys):
    """At lam = 1e-20 the one-hot system is singular in floating point."""
    data = tmp_path / "tiny.csv"
    data.write_text("task,y,x1\n0,1.0,0.5\n1,2.0,0.1\n0,1.5,0.3\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 1e-20\n")
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.txt"),
                 "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "smtl fit: numerical failure: the one-hot system H is singular in "
        "floating point at lam = 1e-20\n")


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["fit"])  # missing required arguments
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", "--out", "x.csv"])  # no such subcommand
    assert exc.value.code == 1


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_verify_seed_that_is_not_a_non_negative_integer_is_usage_error(
        capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", seed])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    usage, message = err.splitlines()
    assert usage.startswith("usage: smtl verify")
    assert message == ("smtl verify: error: argument --seed: expected a "
                       "non-negative integer, got %r" % seed)


def test_verify_filter(capsys):
    assert main(["verify", "--filter", "nuclear"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "nuclear" in out


def test_verify_failing_check_exits_four(monkeypatch, capsys):
    failing = OracleReport("always_fails", False, 1.0, 0.0, 1e-3)
    monkeypatch.setattr("smtl.cli.run_all", lambda **kw: [failing])
    assert main(["verify"]) == 4
    captured = capsys.readouterr()
    assert "FAIL  always_fails" in captured.out
    assert "1 of 1 checks failed" in captured.err


def test_verify_no_match_fails(capsys):
    assert main(["verify", "--filter", "zzz_not_a_check"]) == 1
    assert "no checks match" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
