"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def run_example(heading: str):
    """Run the first Python block of the README section under ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": f"readme_{heading.lower()}"})


def test_model_drive_example_runs(capsys):
    run_example("Model")
    assert "LossBreakdown(" in capsys.readouterr().out


@pytest.mark.slow
def test_library_example_runs():
    run_example("Library")
