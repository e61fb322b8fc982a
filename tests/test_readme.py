"""The README's Python API sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Python API sketch"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Python API sketch'"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["report"]["pass"]
    assert namespace["cert"]["passed"]
    assert namespace["run"]["passed"]
