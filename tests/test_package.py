"""Tests for the top-level package: its exports, the README example and the
layout of its value types."""

import contextlib
import io
import pathlib
import re

import trisectrix
from trisectrix.geom import Angle, Circle, Point2
from trisectrix.locus import LocusParams, locus_point, trisect, verify_trisection
from trisectrix.oracles import chord_diagram, cross_validate
from trisectrix.origami import abe_construct
from trisectrix.render import RenderSpec

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


def test_value_types_are_slotted_and_keep_post_init():
    # Slotted values carry no per-instance __dict__. The construction counts
    # of the benchmark and of the tests wrap Point2 and Angle __post_init__,
    # so both classes must define it themselves.
    params = LocusParams(1.0)
    result = trisect(1.0, params)
    values = [
        Angle(1.0), Point2(0.0, 1.0), Circle(Point2(0.0, 0.0), 1.0), params,
        locus_point(params, 2.0), result, verify_trisection(result, params),
        abe_construct(1.0), chord_diagram(1.0), cross_validate(1.0, 1.0, 1e-10),
        RenderSpec(),
    ]
    assert len({type(v) for v in values}) == 11
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
    assert "__post_init__" in Point2.__dict__
    assert "__post_init__" in Angle.__dict__
