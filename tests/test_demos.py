"""Every demo runs to its end in process."""

import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(capsys, monkeypatch, path):
    monkeypatch.chdir(REPO)  # demos name their scenario files from the repository root
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
