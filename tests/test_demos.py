"""Every script under demos/, and README's python quickstart, runs to completion
against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # the warning filters pyproject.toml gives pytest, which a subprocess escapes
    filters = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
               "-W", "error::PendingDeprecationWarning"]
    return subprocess.run([sys.executable, *filters, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    done = run_python(script, tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    script = tmp_path / "quickstart.py"
    script.write_text(blocks[0], encoding="utf-8")
    done = run_python(script, tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
