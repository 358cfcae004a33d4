"""The README's Python examples run as written, and its config example
parses and builds."""

import dataclasses
import re
from pathlib import Path

from smtl.config import CONFIG_KEYS, parse_config
from smtl.solver import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    """The quickstart and the lambda-path idiom, in one namespace, since
    the second reuses the first's imports and dataset."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].iters >= 1


def test_readme_config_block_lists_every_key_and_builds():
    (text,) = re.findall(r"```\n(kernel\.type.*?)```", README.read_text(),
                         re.S)
    keys = [line.split("#", 1)[0].split("=", 1)[0].strip()
            for line in text.splitlines()]
    assert sorted(keys) == sorted(CONFIG_KEYS)
    parse_config(text).build(3)


def test_readme_solver_settings_list_matches_solver_config():
    """The bullets under "Solver options live on `SolverConfig`" name every
    field, and each backticked name that heads a bullet is a field."""
    (text,) = re.findall(r"Solver options live on `SolverConfig`:\n\n"
                         r"(- .*?)\n\n", README.read_text(), re.S)
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields <= set(re.findall(r"`(\w+)`", text))
    heads = re.findall(r"^- ((?:`\w+`(?:, )?)+)", text, re.M)
    assert heads
    for head in heads:
        assert set(re.findall(r"`(\w+)`", head)) <= fields, head
