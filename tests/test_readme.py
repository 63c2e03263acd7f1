"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python code block under the "Library example" heading."""
    text = README.read_text()
    assert "## Library example" in text
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match is not None, "no python block under Library example"
    return match.group(1)


def test_library_example_runs():
    namespace = {"__name__": "readme_example"}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["report"].converged
