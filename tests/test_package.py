"""Tests for the top-level package: its exports and the README example."""

import contextlib
import io
import pathlib
import re

import trisectrix

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    names = trisectrix.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(trisectrix, name) is not None, name


def test_readme_library_example_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    # The value the README shows next to the first print is the one printed.
    assert f"# {lines[0]}\n" in code
    assert abs(float(lines[0]) - 20.0) <= 1e-9
