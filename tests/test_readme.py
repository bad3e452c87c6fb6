"""Every ``python`` block of the README runs as written, on its own."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("number", range(len(BLOCKS)))
def test_readme_python_block_runs(number, capsys):
    exec(compile(BLOCKS[number], f"README.md python block {number + 1}",
                 "exec"), {})
    assert capsys.readouterr().out
