"""Model persistence round-trips and run-configuration parsing."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtl.config import CONFIG_KEYS, RunConfig, load_config, parse_config
from smtl.errors import BadPenaltyParam, ConfigError, ParseError, VersionMismatch
from smtl.kernels import KernelSpec
from smtl.metrics import predict
from smtl.model_io import load_model, save_model
from smtl.penalties import PenaltySpec
from smtl.solver import SolverConfig, fit
from smtl.synth import SyntheticSpec, synth_generate


@pytest.fixture
def fitted(tmp_path):
    ds, _ = synth_generate(SyntheticSpec(d=3, n_tasks=3, n_per_task=8), seed=0)
    model, _ = fit(ds, KernelSpec("gaussian", gamma=0.7),
                   PenaltySpec.schatten(1.0, 1.0), 0.2,
                   config=SolverConfig(max_iter=40, epsilon=1e-10))
    return model, tmp_path


class TestModelRoundTrip:
    def test_arrays_bitwise_identical(self, fitted):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.C, model.C)
        assert np.array_equal(back.A.data, model.A.data)
        assert np.array_equal(back.gram.X_train, model.gram.X_train)
        assert back.gram.spec.kind == "gaussian"
        assert back.gram.spec.gamma == 0.7

    def test_predictions_survive_round_trip(self, fitted):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        back = load_model(path)
        rng = np.random.default_rng(1)
        x_new = rng.standard_normal((7, 3))
        assert np.array_equal(predict(back, x_new), predict(model, x_new))

    def test_loaded_model_cannot_refit(self, fitted):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.inst is None

    def test_truncated_file_names_missing_block(self, fitted):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        text = path.read_text()
        cut = text[: text.index("[A]")]
        bad = tmp / "cut.txt"
        bad.write_text(cut)
        with pytest.raises(ParseError, match="A"):
            load_model(bad)

    def test_wrong_header_version(self, fitted, tmp_path):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        text = path.read_text().replace("SMTL-MODEL v1", "SMTL-MODEL v7", 1)
        bad = tmp / "v7.txt"
        bad.write_text(text)
        with pytest.raises(VersionMismatch):
            load_model(bad)

    def test_corrupt_row_reports_block_and_row(self, fitted):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        lines = path.read_text().split("\n")
        c_header = next(i for i, l in enumerate(lines) if l.startswith("[C]"))
        lines[c_header + 2] = lines[c_header + 2] + " 0.5"  # extra value
        bad = tmp / "wide.txt"
        bad.write_text("\n".join(lines))
        with pytest.raises(ParseError, match=r"\[C\] row 2"):
            load_model(bad)

    def test_structure_shape_consistency_enforced(self, fitted):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        text = path.read_text().replace("[A] 3 3", "[A] 2 3")
        # drop one A row so the declared shape is honest
        lines = text.rstrip("\n").split("\n")
        lines.pop()
        bad = tmp / "shape.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_model(bad)

    @pytest.mark.parametrize("line, text", [
        (3, "kind cubic"),
        (4, "gamma -1"),
    ])
    def test_bad_kernel_is_parse_error_at_its_line(self, fitted, line, text):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        lines = path.read_text().split("\n")
        assert lines[line - 1].split()[0] == text.split()[0]
        lines[line - 1] = text
        bad = tmp / "kernel.txt"
        bad.write_text("\n".join(lines))
        with pytest.raises(ParseError) as err:
            load_model(bad)
        assert err.value.line == line

    def test_indefinite_structure_is_parse_error_at_block_end(self, fitted):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        lines = path.read_text().rstrip("\n").split("\n")
        a_header = next(i for i, l in enumerate(lines) if l.startswith("[A]"))
        row = lines[a_header + 1].split()
        lines[a_header + 1] = " ".join(["-5"] + row[1:])
        bad = tmp / "indefinite.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"\[A\]") as err:
            load_model(bad)
        assert err.value.line == len(lines)


class TestConfigParsing:
    def test_defaults_match_solver(self):
        cfg = parse_config("")
        sc = cfg.solver_config()
        ref = SolverConfig()
        assert sc.epsilon == ref.epsilon
        assert sc.max_iter == RunConfig().max_iter
        assert sc.delta == ref.delta
        assert sc.delta_schedule == ref.delta_schedule

    def test_every_documented_key_parses(self):
        lines = []
        samples = {
            "kernel.type": "gaussian", "penalty.type": "cluster",
            "mode": "bcd", "delta.schedule": "geometric",
        }
        for key, (attr, parser) in CONFIG_KEYS.items():
            if key in samples:
                lines.append("%s = %s" % (key, samples[key]))
            elif parser is int or "r" == key.rsplit(".", 1)[-1] or attr in ("max_iter", "penalty_r"):
                lines.append("%s = 3" % key)
            else:
                lines.append("%s = 0.25" % key)
        cfg = parse_config("\n".join(lines))
        assert cfg.kernel_type == "gaussian"
        assert cfg.penalty_type == "cluster"
        assert cfg.mode == "bcd"
        assert cfg.delta_schedule == "geometric"
        assert cfg.lam == 0.25
        assert cfg.max_iter == 3
        assert cfg.penalty_r == 3

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# run settings\n"
            "\n"
            "lambda = 0.5  # strength\n"
            "   \n"
            "max_iter = 9\n"
        )
        assert cfg.lam == 0.5
        assert cfg.max_iter == 9

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("lambda = 0.5\nlambad = 0.2\n")
        assert "line 2" in str(exc.value)

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("lambda = 0.5\n\nlambda = 0.2\n")
        assert "line 3" in str(exc.value)

    def test_bad_value(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("max_iter = soon\n")
        assert "soon" in str(exc.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("lambda 0.5\n")

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("kernel.type = gaussian\nkernel.gamma = 0.3\n")
        cfg = load_config(p)
        spec = cfg.kernel_spec()
        assert spec.kind == "gaussian"
        assert spec.gamma == 0.3


class TestConfigBuilders:
    def test_penalty_builders(self):
        cfg = parse_config("penalty.type = trace_one\n")
        assert cfg.penalty_spec().kind == "trace_one"
        cfg = parse_config(
            "penalty.type = cluster\npenalty.r = 2\n"
            "penalty.eps_m = 1.0\npenalty.eps_b = 1.5\npenalty.eps_w = 1.0\n"
        )
        spec = cfg.penalty_spec()
        assert spec.kind == "cluster" and spec.r == 2

    def test_fixed_penalty_needs_task_count(self):
        cfg = parse_config("penalty.type = fixed\n")
        with pytest.raises(BadPenaltyParam):
            cfg.penalty_spec()
        spec = cfg.penalty_spec(n_tasks=4)
        assert_allclose(spec.a0.data, np.eye(4))

    def test_unknown_penalty_type(self):
        cfg = parse_config("penalty.type = lasso\n")
        with pytest.raises(BadPenaltyParam):
            cfg.penalty_spec()
