"""Each demo runs to completion in a child process, prints no numpy scalar
repr and leaves nothing in the temporary directory."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_pipeline import cli_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos next to the tests"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_cleans_up(tmp_path, demo):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        cwd=tmp_path, env={**cli_env(), "TMPDIR": str(tmpdir)},
    )
    assert proc.returncode == 0, proc.stderr
    for scalar in ("np.int64(", "np.float64(", "np.float32("):
        assert scalar not in proc.stdout, proc.stdout
    assert list(tmpdir.iterdir()) == []
