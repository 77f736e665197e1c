"""The README's library example runs and gives the results its comments state."""

import re
from pathlib import Path

from modalkit import Valid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["holds"] is True
    assert isinstance(namespace["verdict"], Valid)
    assert namespace["world"] == 1
    assert namespace["minimal"] == ["K4"]
