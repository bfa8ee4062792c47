"""README.md's ```python blocks, executed in order in one namespace, so the
documentation cannot name a function or keyword the package lacks."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_readme_has_python_blocks():
    assert len(_python_blocks()) >= 4


def test_readme_python_blocks_run():
    namespace = {}
    for k, block in enumerate(_python_blocks()):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
