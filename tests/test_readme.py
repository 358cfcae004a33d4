"""The README's Python examples run as written."""

import re
from pathlib import Path

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
