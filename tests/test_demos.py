"""Every walkthrough in demos/, and every Python block of the README, runs to completion against the current
library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
# each fenced python block, padded with the newlines before it so that a traceback names its README line
README_BLOCKS = ["\n" * README.count("\n", 0, match.start(1)) + match[1]
                 for match in re.finditer(r"^```python\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)]


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"  # pytest's filterwarnings does not reach a subprocess
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_readme_blocks_are_found():
    assert len(README_BLOCKS) == 1


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})
