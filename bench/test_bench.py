"""Tests of the benchmark itself: seeded inputs, the tail percentile, failure
accounting and span self time.

Run from the repository root: python -m pytest -q bench
"""

import hashlib
import importlib
import math
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from stats import LADDER, samples_beyond, tail_percentile  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    # Not workloads.import_library(): reloading would give other test
    # modules in the same session stale classes.
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"trisectrix.{m}") for m in workloads.MODULES}
    )


def test_same_seed_same_inputs_other_seed_other_inputs():
    tols = workloads.Solve.tols
    assert workloads.solver_inputs(5, tols) == workloads.solver_inputs(5, tols)
    assert workloads.solver_inputs(5, tols) != workloads.solver_inputs(6, tols)
    assert workloads.emit_inputs(5) == workloads.emit_inputs(5)
    assert workloads.emit_inputs(5) != workloads.emit_inputs(6)
    assert workloads.cli_inputs(5) == workloads.cli_inputs(5)
    assert workloads.cli_inputs(5) != workloads.cli_inputs(6)


def test_every_cycle_holds_each_integer_degree_and_stays_in_domain():
    inputs = workloads.solver_inputs(3, workloads.Crosscheck.tols)
    n = workloads.CYCLE_OPS
    assert len(inputs) == workloads.CYCLES * n
    for start in range(0, len(inputs), n):
        degrees = sorted(math.degrees(t) for t, _, _ in inputs[start:start + n])
        # Each degree d appears exactly, next to one draw from (d-1, d].
        for d in range(1, 91):
            assert d - 1 < degrees[2 * d - 2] <= d + 1e-9
            assert degrees[2 * d - 1] == pytest.approx(d, abs=1e-9)
        tols = [tol for _, _, tol in inputs[start:start + n]]
        assert {tols.count(t) for t in workloads.Crosscheck.tols} == {n // 2}
    assert all(0.0 < t <= 0.5 * math.pi and 0.1 <= a <= 10.0 for t, a, _ in inputs)
    assert {tol for _, _, tol in inputs} == set(workloads.Crosscheck.tols)


@pytest.mark.parametrize("n, expected", [
    (20, "50"), (39, "50"), (40, "75"), (100, "90"), (999, "90"), (1000, "99"),
    (2000, "99"), (10000, "99.9"), (20000, "99.9"), (100000, "99.99"),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert str(p) == str(type(p)(expected))
    assert samples_beyond(n, p) >= 10
    higher = [q for q in LADDER if q > p]
    assert not higher or samples_beyond(n, higher[0]) < 10


def test_self_time_is_span_time_minus_child_time():
    spans = [
        ["root", 0, 100, -1, 1],
        ["a", 10, 40, 0, 1],
        ["a.inner", 15, 25, 1, 1],
        ["b", 50, 90, 0, 1],
    ]
    assert self_times(spans) == [30, 20, 10, 40]


def test_tracer_wraps_names_imported_across_modules_and_restores_them(lib):
    original = lib.oracles.trisect
    tracer = Tracer()
    with tracer.installed():
        assert lib.oracles.trisect is not original
        lib.oracles.cross_validate(math.radians(60.0), 1.0, 1e-12)
    assert lib.oracles.trisect is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "oracles.cross_validate"
    assert "locus.trisect" in names
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] == "locus.trisect")
    assert tracer.counts["geom.point2"] > 0 and tracer.counts["geom.angle"] > 0


def test_solve_counts_failed_verification_and_errors(lib):
    wl = workloads.Solve()
    wl.catch = lib.errors.TrisectrixError
    x = (math.radians(60.0), 1.0, 1e-12)
    params = lib.locus.LocusParams(1.0)
    result = lib.locus.trisect(x[0], params, x[2])
    good = lib.locus.verify_trisection(result, params)
    assert wl.check(x, (result, good)) is None
    bad = lib.report.VerificationReport(residuals={"locus_relation_at_n": 3.6e-12})
    assert wl.check(x, (result, bad)) == ("locus", False)
    assert wl.check(x, lib.errors.MaxIterationsExceeded("spun")) == ("locus", False)
    # A third that disagrees with the target is a wrong output, not only a failure.
    assert wl.check((math.radians(30.0), 1.0, 1e-12), (result, good)) == ("locus", True)


def test_crosscheck_counts_failed_report(lib):
    wl = workloads.Crosscheck()
    wl.catch = lib.errors.TrisectrixError
    wl.convergence = lib.errors.MaxIterationsExceeded
    x = (math.radians(45.0), 2.0, 1e-10)
    report = lib.oracles.cross_validate(*x)
    assert wl.check(x, report) is None
    report.residuals["chord_jk_radius"] = 1.0
    assert wl.check(x, report) == ("oracles", False)
    report.residuals["trisection_locus_relation_at_n"] = 2.0
    assert wl.check(x, report) == ("locus", False)
    assert wl.check(x, lib.errors.MismatchDetected("gap")) == ("oracles", False)


def test_emit_counts_corrupted_digest_and_nonzero_exit(lib, tmp_path):
    wl = workloads.Emit()
    wl.catch = lib.errors.TrisectrixError
    wl.paths = (str(tmp_path / "locus.csv"), str(tmp_path / "render.svg"))
    pair = (["locus", "--fold", "1"], ["render", "--angle-deg", "60"])
    for path, text in zip(wl.paths, (b"csv", b"svg")):
        with open(path, "wb") as fh:
            fh.write(text)
    wl.references = {"locus --fold 1": hashlib.sha256(b"csv").hexdigest(),
                     "render --angle-deg 60": hashlib.sha256(b"svg").hexdigest()}
    assert wl.check(pair, (0, 0)) is None
    assert wl.check(pair, (0, 3)) == ("cli", False)
    with open(wl.paths[1], "wb") as fh:
        fh.write(b"svg!")
    assert wl.check(pair, (0, 0)) == ("cli", True)


def test_cli_counts_nonzero_exit_and_corrupted_stdout():
    wl = workloads.Cli()
    args = ["trisect", "--angle-deg", "60"]
    wl.references = {" ".join(args): hashlib.sha256(b"{}\n").hexdigest()}
    assert wl.check(args, (0, b"{}\n")) is None
    assert wl.check(args, (1, b"{}\n")) == ("process", False)
    assert wl.check(args, (0, b"{ }\n")) == ("process", True)


def test_tally_counts_failures_by_layer():
    tally = workloads.Tally()
    for i, verdict in enumerate((None, ("locus", False), ("oracles", True), None)):
        tally.add(i, verdict)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 1)
    assert tally.by_layer == {"locus": 1, "oracles": 1}


def test_tally_counts_each_input_once_however_many_passes_ran():
    verdicts = (None, ("locus", False), None, ("cli", True))
    counts = []
    for passes in (1, 7):
        tally = workloads.Tally()
        for _ in range(passes):
            for i, verdict in enumerate(verdicts):
                tally.add(i, verdict)
        assert tally.runs == passes * len(verdicts)
        counts.append((tally.attempted, tally.failed, tally.wrong, tally.by_layer))
    assert counts[0] == counts[1] == (4, 2, 1, {"locus": 1, "cli": 1})
