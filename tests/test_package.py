"""Tests for the top-level package: its exports, the README example, the
layout of its value types and the rule that every name in it has a caller."""

import ast
import collections
import contextlib
import importlib
import io
import os
import pathlib
import re
import subprocess
import sys

import trisectrix
from trisectrix.cli import main
from trisectrix.geom import Angle, Point2, Value
from trisectrix.locus import LocusParams, locus_point, trisect, verify_trisection
from trisectrix.oracles import chord_diagram, chord_residuals, cross_validate
from trisectrix.origami import abe_construct, abe_verify
from trisectrix.report import VerificationReport

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(trisectrix.__file__).resolve().parent

# Top-level names with no caller inside the package: the acceptance gate
# (tests/test_acceptance.py) imports them to measure the library's outputs.
CALLED_ONLY_BY_ACCEPTANCE_GATE = {"distance", "wrap_signed"}


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


def test_readme_command_lines_run_as_written(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert len(commands) == 5
    for words in commands:
        assert words[0] == "trisectrix"
        argv = words[1:]
        # Each output goes into tmp_path: a named file keeps its name there,
        # standard output becomes a file of its own.
        if "--output" in argv:
            at = argv.index("--output") + 1
            argv[at] = str(tmp_path / argv[at])
        else:
            argv += ["--output", str(tmp_path / f"{argv[0]}.out")]
        assert main(argv) == 0, " ".join(words)


def _values():
    """One instance of each of the nine value types."""
    params = LocusParams(1.0)
    result = trisect(1.0, params)
    return [
        Angle(1.0), Point2(0.0, 1.0), params,
        locus_point(params, 2.0), result, verify_trisection(result, params),
        abe_construct(1.0), chord_diagram(1.0), cross_validate(1.0, 1.0, 1e-10),
    ]


def test_value_types_are_slotted_and_keep_post_init():
    # Slotted values carry no per-instance __dict__. The benchmark counts
    # Point2 and Angle constructions by wrapping their __post_init__, and the
    # tests' counts find each __post_init__ by its code object, so both
    # classes must define it themselves.
    values = _values()
    assert len({type(v) for v in values}) == 9
    for value in values:
        assert isinstance(value, Value), type(value).__name__
        assert not hasattr(value, "__dict__"), type(value).__name__
    assert "__post_init__" in Point2.__dict__
    assert "__post_init__" in Angle.__dict__


def test_values_rebuild_from_their_fields_by_keyword_and_compare_by_identity():
    for value in _values():
        cls = type(value)
        # Every type builds from its fields by keyword, into a value of the
        # same repr; values compare and hash by identity.
        rebuilt = cls(**{name: getattr(value, name) for name in cls.__slots__})
        assert repr(rebuilt) == repr(value), cls.__name__
        assert rebuilt != value and len({rebuilt, value}) == 2, cls.__name__
    # A report holds only its checked residuals.
    assert VerificationReport.__slots__ == ("residuals",)


def _mutable_parts(values):
    """Every Point2, Angle and dict reachable from ``values`` through the
    slots of the value types, the items of tuples and the values of dicts,
    by id."""
    found = {}
    stack = list(values)
    while stack:
        value = stack.pop()
        if isinstance(value, (Point2, Angle, dict)):
            found[id(value)] = value
        if isinstance(value, Value):
            stack += [getattr(value, name) for name in type(value).__slots__]
        elif isinstance(value, tuple):
            stack += value
        elif isinstance(value, dict):
            stack += value.values()
    return found


def _route_outputs(t3):
    """Each route's value for the target ``t3``, and the reprs of those
    values and of their verification."""
    params = LocusParams(1.0)
    result = trisect(t3, params)
    fold, diagram = abe_construct(t3), chord_diagram(t3)
    report = cross_validate(t3, 1.0, 1e-10)
    assert report.passes(1e-10)
    values = [result, fold, diagram, report]
    checks = [verify_trisection(result, params), abe_verify(fold),
              chord_residuals(diagram)]
    return values, [repr(v) for v in values + checks]


def test_values_from_separate_calls_share_no_mutable_part():
    # Values are mutable, so no two calls may hand out one object, and no
    # result may hold the caller's own Angle: a point moved or an angle set
    # in one result would otherwise change the caller's and every other.
    for target in (1.0, Angle(1.0)):
        first, _ = _route_outputs(target)
        second, second_reprs = _route_outputs(target)
        # test_locus.count_grid pins how many parts there are.
        parts = [_mutable_parts([value]) for value in first + second]
        for i, mine in enumerate(parts):
            assert id(target) not in mine
            for theirs in parts[i + 1:]:
                assert not mine.keys() & theirs.keys()
        for part in _mutable_parts(first).values():
            if isinstance(part, Point2):
                part.x += 0.25
            elif isinstance(part, Angle):
                part.radians = 2.0
        assert [repr(v) for v in second] == second_reprs[:len(second)]
        assert _route_outputs(target)[1] == second_reprs


def test_import_loads_no_dataclasses():
    # The value types are written out by hand so that importing the package
    # runs no code generation and loads none of dataclasses' dependencies,
    # and its annotations need no typing module. -S keeps site-packages
    # hooks from importing these modules themselves. The import also calls
    # no function of the package: the profiler prints each package frame
    # whose code is a function's (CO_OPTIMIZED), which module and class
    # bodies are not, so no solve or route runs to fill a module constant.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = ("import sys\n"
            f"package = {str(PACKAGE)!r}\n"
            "def profile(frame, event, arg):\n"
            "    code = frame.f_code\n"
            "    if (event == 'call' and code.co_flags & 1\n"
            "            and code.co_filename.startswith(package)):\n"
            "        print('called', code.co_name)\n"
            "sys.setprofile(profile)\n"
            "import trisectrix.cli\n"
            "sys.setprofile(None)\n"
            "print(*sorted(sys.modules))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("called ")] == []
    loaded = set(lines[-1].split())
    assert "trisectrix.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "typing"} == set()


def _defined_names(statement):
    """Function, class and constant names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _loaded_names(statement):
    """Names a statement reads, bare or as an attribute such as ``geom.x``."""
    names = collections.Counter()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
    return names


def test_every_top_level_name_has_a_caller_in_the_package():
    # Code is kept only if the pipeline, an oracle route or the CLI uses it.
    # A re-export from __init__.py is not a use, and neither is a read inside
    # the name's own definition, such as a recursive call.
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            statements += [(path.stem, s, _loaded_names(s)) for s in tree.body]
    total = collections.Counter()
    for _, _, loads in statements:
        total.update(loads)
    uncalled = {
        f"{module}.{name}"
        for module, statement, loads in statements
        for name in _defined_names(statement)
        if total[name] == loads[name]
    }
    assert uncalled == {f"geom.{name}" for name in CALLED_ONLY_BY_ACCEPTANCE_GATE}


def test_every_library_error_has_an_exit_code():
    # Every input ends in a result or in a TrisectrixError mapped to its
    # documented exit code, so the CLI must catch each subclass by name.
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    subclasses = {
        node.name for node in errors.body
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", None) == "TrisectrixError" for base in node.bases)
    }
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    caught = {
        name.id
        for handler in ast.walk(cli)
        if isinstance(handler, ast.ExceptHandler) and handler.type
        for name in ast.walk(handler.type) if isinstance(name, ast.Name)
    }
    assert subclasses
    assert subclasses - caught == set()


def _fields(node):
    """The field names a class statement lists in ``__slots__``."""
    return [
        name
        for s in node.body
        if isinstance(s, ast.Assign) and getattr(s.targets[0], "id", None) == "__slots__"
        for name in ast.literal_eval(s.value)
    ]


def test_every_value_field_is_read_in_the_package():
    # The same rule for the fields of the package's value types: each must be
    # read as an attribute somewhere in the package outside __init__.py. The
    # check goes by name only, so a field that shares its name with an
    # attribute read elsewhere escapes it: CrossValidationReport.three_theta
    # and .tol went unread, yet passed because of result.three_theta and
    # args.tol.
    fields, reads = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    fields.update((node.name, name) for name in _fields(node))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
    assert len({cls for cls, _ in fields}) == 9
    unread = {f"{cls}.{name}" for cls, name in fields if name not in reads}
    assert unread == set()


def test_library_builds_values_positionally():
    # Keyword arguments to a class call go through a kwargs dict into
    # __init__: on CPython 3.11 that made building a TrisectionResult cost
    # 918 ns against 297 ns positionally (VerificationReport 515 vs 283).
    # The solver builds one result per solve, so the package passes value
    # fields by position; callers outside it may still use keywords.
    values = {
        name
        for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
        for name, obj in vars(importlib.import_module(f"trisectrix.{path.stem}")).items()
        if isinstance(obj, type) and issubclass(obj, Value)
    }
    assert len(values - {"Value"}) == 9
    keyworded = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and call.keywords:
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in values:
                    keyworded.append(f"{path.name}:{call.lineno} {name}")
    assert keyworded == []


def _divisions_by_three(node, scope):
    """``module.function`` for each division of a computed value by the
    literal 3 under ``node``, ``scope`` naming the enclosing function. A
    constant over 3, such as the cube-root exponent 1.0 / 3.0, divides no
    angle and is left out."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, ast.FunctionDef):
            inner = f"{scope.split('.')[0]}.{child.name}"
        elif (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div)
              and isinstance(child.right, ast.Constant) and child.right.value == 3
              and not isinstance(child.left, ast.Constant)):
            yield scope
        yield from _divisions_by_three(child, inner)


def test_only_the_listed_functions_divide_by_three():
    # The paper trisects "without any measurements": the curve, not a
    # division, gives the third. oracle_theta is the one site meant to stay,
    # the ground truth the other routes are compared with; each other site
    # is a route that still takes its third from the oracle's arithmetic and
    # leaves this list once it reads the third off the curve or the fold. A
    # new division by three fails here.
    sites = sorted(
        site
        for path in PACKAGE.glob("*.py")
        for site in _divisions_by_three(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    )
    assert sites == [
        "locus.trisect", "locus.trisect",
        "oracles.chord_diagram", "oracles.chord_residuals", "oracles.oracle_theta",
        "origami.abe_construct", "origami.abe_verify",
    ]
