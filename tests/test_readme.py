"""The ```python blocks of README.md run as written, each in a fresh namespace."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# Each block is padded with the newlines before it, so a traceback names its README line.
BLOCKS = [
    "\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
]


def run_block(source: str) -> dict:
    namespace = {"__name__": "__readme__"}
    exec(compile(source, str(README), "exec"), namespace)
    return namespace


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_runs(index):
    run_block(BLOCKS[index])


def test_library_use_gives_the_stated_margins():
    (block,) = [b for b in BLOCKS if "# about 0.042, None" in b]
    namespace = run_block(block)
    dpo, wrpo = namespace["dpo"], namespace["out"]
    assert dpo.hybrid_policy_margin == pytest.approx(0.042, abs=5e-4)
    assert dpo.on_policy_margin is None
    # Both compare y_ws with y_l, so the wrpo kind's hybrid column is the same margin.
    assert wrpo.hybrid_policy_margin == dpo.hybrid_policy_margin
