"""Every demo script and the README quick start run to completion without
writing to stderr."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def assert_runs_clean(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("FRACDIM_CONFIG", None)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    assert_runs_clean([str(demo)])


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert_runs_clean(["-c", code])
