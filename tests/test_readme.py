"""The README's library quick start runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def test_quick_start_runs(capsys):
    blocks = python_blocks(README.read_text())
    assert blocks, "the README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the quick start prints the exact, closed-form and Monte Carlo rates and the standard error
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 4
