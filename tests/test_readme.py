"""README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_python_examples_run_in_order():
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
