"""Model persistence round-trips and run-configuration parsing."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtl.config import CONFIG_KEYS, load_config, parse_config
from smtl.errors import ConfigError, ParseError, VersionMismatch
from smtl.kernels import KernelSpec
from smtl.metrics import predict
from smtl.model_io import load_model, save_model
from smtl.penalties import PenaltySpec
from smtl.solver import SolverConfig, fit, refit_supervised
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
        with pytest.raises(ValueError, match="no problem instance"):
            refit_supervised(back, 0.5)

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
        (3, "kind"),
        (3, "kind linear gaussian"),
        (4, "gamma"),
        (4, "gamma half"),
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

    @pytest.mark.parametrize("target, text", [
        ("[kernel]", "[kern]"),
        ("[X]", "[X] 24"),
        ("[X]", "(X) 24 3"),
        ("[X]", "[X] 24 three"),
        ("[C]", "[C] 24.0 3"),
        ("[X]", "[X] -24 3"),
        ("[A]", "[A] 3 -3"),
    ], ids=["no_kernel_block", "header_fields", "header_name",
            "dims_word", "dims_float", "dims_negative_rows",
            "dims_negative_cols"])
    def test_bad_block_header_is_parse_error_at_its_line(self, fitted,
                                                         target, text):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        lines = path.read_text().split("\n")
        line = next(i for i, l in enumerate(lines) if l.startswith(target))
        lines[line] = text
        bad = tmp / "block.txt"
        bad.write_text("\n".join(lines))
        with pytest.raises(ParseError) as err:
            load_model(bad)
        assert err.value.line == line + 1

    def test_non_numeric_entry_is_parse_error_at_its_line(self, fitted):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        lines = path.read_text().split("\n")
        line = next(i for i, l in enumerate(lines) if l.startswith("[C]")) + 3
        lines[line] = " ".join(["0.5", "one"] + lines[line].split()[2:])
        bad = tmp / "word.txt"
        bad.write_text("\n".join(lines))
        with pytest.raises(ParseError, match=r"\[C\] row 3") as err:
            load_model(bad)
        assert err.value.line == line + 1

    def test_coefficient_rows_must_match_inputs(self, fitted):
        # a [C] block with one row fewer than [X] is consistent on its own;
        # the mismatch is reported at the [C] header, which declares it
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        lines = path.read_text().rstrip("\n").split("\n")
        c_header = next(i for i, l in enumerate(lines) if l.startswith("[C]"))
        lines[c_header] = "[C] 23 3"
        del lines[c_header + 1]
        bad = tmp / "rows.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"\[C\] row count") as err:
            load_model(bad)
        assert err.value.line == c_header + 1

    @pytest.mark.parametrize("text", ["[A] 3 2", "[A] 2 2", "[A] 4 4"],
                             ids=["not_square", "too_small", "too_large"])
    def test_structure_shape_is_reported_at_its_header(self, fitted, text):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        lines = path.read_text().split("\n")
        a_header = next(i for i, l in enumerate(lines) if l.startswith("[A]"))
        lines[a_header] = text
        bad = tmp / "a_shape.txt"
        bad.write_text("\n".join(lines))
        with pytest.raises(ParseError, match=r"\[A\] must be T x T") as err:
            load_model(bad)
        assert err.value.line == a_header + 1

    @pytest.mark.parametrize("block, row, value", [
        ("kernel", 2, "inf"),  # the gamma line
        ("X", 2, "nan"),
        ("C", 3, "inf"),
        ("A", 1, "-inf"),
    ])
    def test_non_finite_value_is_parse_error_at_its_line(self, fitted, block,
                                                          row, value):
        model, tmp = fitted
        path = tmp / "m.txt"
        save_model(model, path)
        lines = path.read_text().split("\n")
        header = next(i for i, l in enumerate(lines)
                      if l.startswith("[%s]" % block))
        parts = lines[header + row].split()
        lines[header + row] = " ".join(parts[:1] + [value] + parts[2:])
        bad = tmp / "non_finite.txt"
        bad.write_text("\n".join(lines))
        with pytest.raises(ParseError) as err:
            load_model(bad)
        assert err.value.line == header + row + 1

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
        # every default is the component's own
        cfg = parse_config("")
        kernel, penalty, solver = cfg.build(3)
        assert solver == SolverConfig()
        assert kernel == KernelSpec()
        assert vars(penalty) == vars(PenaltySpec.schatten())
        assert (cfg.lam, cfg.ridge) == (0.1, 0.0)

    def test_every_documented_key_parses(self):
        lines = []
        samples = {
            "kernel.type": "gaussian", "penalty.type": "cluster",
            "mode": "bcd", "delta.schedule": "geometric",
        }
        for key, (_, _, parser) in CONFIG_KEYS.items():
            if key in samples:
                lines.append("%s = %s" % (key, samples[key]))
            elif parser is int:
                lines.append("%s = 3" % key)
            else:
                lines.append("%s = 0.25" % key)
        cfg = parse_config("\n".join(lines))
        kernel, penalty, solver = cfg.build(3)
        assert kernel == KernelSpec("gaussian", gamma=0.25)
        assert vars(penalty) == vars(PenaltySpec.cluster(3, 0.25, 0.25, 0.25))
        assert solver.mode == "bcd"
        assert solver.delta_schedule == "geometric"
        assert solver.max_iter == 3
        assert cfg.lam == 0.25

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# run settings\n"
            "\n"
            "lambda = 0.5  # strength\n"
            "   \n"
            "max_iter = 9\n"
        )
        assert cfg.lam == 0.5
        assert cfg.solver.max_iter == 9

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

    @pytest.mark.parametrize("text, line", [
        ("max_iter = 5\nmode = foo\n", 2),
        ("delta = 0\n", 1),
        ("kernel.type = gaussian\n\nkernel.gamma = -1\n", 3),
        ("kernel.gamma = -1\nkernel.type = gaussian\n", 2),
    ])
    def test_value_the_component_rejects_names_its_line(self, text, line):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.line == line

    def test_empty_value_reports_line(self):
        with pytest.raises(ConfigError, match="missing value") as exc:
            parse_config("lambda = 0.5\nmax_iter =  # none\n")
        assert exc.value.line == 2

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("lambda 0.5\n")

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("kernel.type = gaussian\nkernel.gamma = 0.3\n")
        cfg = load_config(p)
        assert cfg.kernel == KernelSpec("gaussian", gamma=0.3)

    def test_readme_config_block_names_every_key_once(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("### Config file"):]
        block = section.split("```")[1]
        parse_config(block)
        keys = [l.split("=")[0].strip() for l in block.split("\n")
                if "=" in l.split("#")[0]]
        assert sorted(keys) == sorted(CONFIG_KEYS)


class TestConfigBuilders:
    def test_penalty_builders(self):
        _, spec, _ = parse_config("penalty.type = trace_one\n").build(3)
        assert spec.kind == "trace_one"
        cfg = parse_config(
            "penalty.type = cluster\npenalty.r = 2\n"
            "penalty.eps_m = 1.0\npenalty.eps_b = 1.5\npenalty.eps_w = 1.0\n"
            "penalty.p = 0.5\n"  # not read by the cluster builder
        )
        _, spec, _ = cfg.build(3)
        assert vars(spec) == vars(PenaltySpec.cluster(2, 1.0, 1.5, 1.0))

    def test_fixed_penalty_needs_task_count(self):
        # fixed is the identity structure at the dataset's task count
        cfg = parse_config("penalty.type = fixed\n")
        _, spec, _ = cfg.build(4)
        assert_allclose(spec.a0.data, np.eye(4))

    def test_unknown_penalty_type(self):
        cfg = parse_config("penalty.type = lasso\n")
        with pytest.raises(ConfigError, match="lasso"):
            cfg.build(3)

    def test_delta_ladder_longer_than_max_iter(self):
        # max_iter may precede the ladder's keys, so the ladder's length is
        # checked once every key is read: 1, 1/2, ..., 2^-19 is 20 phases
        cfg = parse_config("max_iter = 5\ndelta.schedule = geometric\n"
                           "delta = 1\ndelta.factor = 0.5\n"
                           "delta.floor = 1e-6\n")
        with pytest.raises(ConfigError, match="more than max_iter=5 phases"):
            cfg.build(3)
