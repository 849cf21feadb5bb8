"""Every demo script runs to completion, prints its report and raises no RuntimeWarning."""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
