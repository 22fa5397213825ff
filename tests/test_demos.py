"""Every script under demos/ runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

from conftest import run_fresh

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_fresh([str(script)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
