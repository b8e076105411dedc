"""Every demo runs standalone and prints its walkthrough, and the README tour holds."""

import doctest
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # a DeprecationWarning is raised as an error, so a deprecated call fails the demo
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_tour():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted and not result.failed
