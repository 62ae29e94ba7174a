"""Every narrative script under demos/ and the README's Python example run to completion."""

import re
from pathlib import Path

import pytest
from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    done = run_python([str(demo)], cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    done = run_python(["-c", blocks[0]], cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
