import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import destride

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the README's library examples, so that the documented API cannot drift
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.DOTALL | re.MULTILINE)


def _run(args):
    # the package, and the lemma kit (tests/lemmas.py) the lemma demos import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    _run([str(demo)])


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_example_runs(block):
    _run(["-c", block])


def test_readme_names_every_public_name():
    text = (ROOT / "README.md").read_text()
    missing = [n for n in destride.__all__ if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert missing == []
