"""Every demo script runs to completion, prints its report and raises no RuntimeWarning;
the README's library tour prints what its comments say."""

import re
import runpy
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_library_tour_prints_what_its_comments_say(capsys):
    # each print(...)  # 0.04760, 0.09520 line prints one line, whose numbers
    # match the comment's to the number of decimals the comment gives
    readme = (ROOT / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    claims = re.findall(r"^print\(.*\)\s*#\s*([-\d.]+(?:,\s*[-\d.]+)*)", tour, flags=re.MULTILINE)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(tour, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(claims) == len(printed) == tour.count("print(") >= 4
    for claim, line in zip(claims, printed):
        want, got = [w.strip() for w in claim.split(",")], line.split()
        assert len(got) == len(want)
        assert [f"{float(x):.{len(w.partition('.')[2])}f}" for x, w in zip(got, want)] == want
