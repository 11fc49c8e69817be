"""README.md's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    # each block reads names the blocks before it define
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"{README.name}, python block {k + 1}", "exec"),
             namespace)
