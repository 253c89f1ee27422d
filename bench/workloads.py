"""The four workloads: inputs made from a seed, one timed operation each, and
the check of each output, which runs outside the timed interval.

Each workload is a closed loop with a single caller in one process; ``cli``
runs one child process at a time. The library receives only the generated
inputs. A check returns None when the operation passed, else
``(layer, wrong)``: the layer the failure is charged to, and whether the
output disagreed with an independent reference (as opposed to raising, exiting
nonzero or failing the result's own verification bound).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import types
from collections import Counter

DEFAULT_SEED = 1
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MODULES = ("errors", "geom", "report", "locus", "origami", "oracles", "render", "cli")
CHILD_TIMEOUT_S = 60

# Solver inputs come in cycles of 180 ops: every integer degree 1..90 once
# (exact 90 covers the branch where origami is skipped) plus one target drawn
# uniformly from each degree's interval (d-1, d], so the draws are uniform
# over (0, 90] and every cycle holds the same mix of hard small angles. Each
# tol covers an equal share of a cycle.
CYCLES = 10
CYCLE_OPS = 180
# Distinct (locus, render) pairs of ``emit``, and angles of ``cli`` (five
# command lines each): enough for a tail percentile with ten inputs beyond it
# (p75).
EMIT_PAIRS = 40
CLI_ANGLES = 8

CSV_HEADER = "b,x,y,q_angle_deg,j_angle_deg,residual_c1,residual_c2,residual_relation"

# Residual names of a cross-validation report that belong to the locus route.
LOCUS_ROUTE = ("trisection_", "theta_locus", "triple_angle_locus")


def import_library() -> types.SimpleNamespace:
    """Import trisectrix afresh, dropping any copy already loaded, and return
    its modules by short name."""
    for name in [n for n in sys.modules if n == "trisectrix" or n.startswith("trisectrix.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"trisectrix.{m}") for m in MODULES}
    )


def solver_inputs(seed: int, tols: tuple) -> list[tuple[float, float, float]]:
    """(target radians, fold a, tol) triples. The fold is log-uniform over
    [0.1, 10]; tol comes from ``tols`` because the step count depends on it."""
    rng = random.Random(seed)
    out = []
    for _ in range(CYCLES):
        degrees = [float(d) for d in range(1, 91)] + [d - rng.random() for d in range(1, 91)]
        cycle_tols = [tols[i % len(tols)] for i in range(CYCLE_OPS)]
        rng.shuffle(degrees)
        rng.shuffle(cycle_tols)
        out.extend(
            (math.radians(d), 10.0 ** rng.uniform(-1.0, 1.0), tol)
            for d, tol in zip(degrees, cycle_tols)
        )
    return out


def emit_inputs(seed: int) -> list[tuple[list[str], list[str]]]:
    """(locus, render) command pairs with seeded folds and angle."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(EMIT_PAIRS):
        locus_fold = repr(10.0 ** rng.uniform(-1.0, 1.0))
        angle = repr(90.0 * (1.0 - rng.random()))
        render_fold = repr(10.0 ** rng.uniform(-1.0, 1.0))
        pairs.append((
            ["locus", "--fold", locus_fold, "--samples", "1000"],
            ["render", "--angle-deg", angle, "--fold", render_fold, "--samples", "250"],
        ))
    return pairs


def cli_inputs(seed: int) -> list[list[str]]:
    """The README's command lines, cycled, at seeded angles. Angles stay in
    [1, 89] degrees: this workload measures the process, and the domain edges
    are covered by ``solve`` and ``crosscheck``."""
    rng = random.Random(seed)
    ops = []
    for _ in range(CLI_ANGLES):
        x = repr(rng.uniform(1.0, 89.0))
        ops += [
            ["trisect", "--angle-deg", x, "--fold", "1"],
            ["origami", "--angle-deg", x],
            ["locus", "--fold", "1", "--samples", "500"],
            ["verify", "--tol", "1e-10"],
            ["render", "--angle-deg", x, "--fold", "1"],
        ]
    return ops


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flag(args: list[str], name: str) -> str:
    return args[args.index(name) + 1]


def plausible(args: list[str], text: str) -> bool:
    """Structural check of one command's output, for seeds without golden
    digests: row count and header, SVG envelope, the solved third, the sweep
    verdict."""
    command = args[0]
    if command == "locus":
        lines = text.splitlines()
        return lines[0] == CSV_HEADER and len(lines) == int(_flag(args, "--samples")) + 1
    if command == "render":
        return text.startswith("<?xml") and text.endswith("</svg>\n")
    if command in ("trisect", "origami"):
        theta = json.loads(text)["theta_deg"]
        return abs(3.0 * theta - float(_flag(args, "--angle-deg"))) <= 1e-9
    return "result: PASS" in text


def load_golden() -> dict:
    with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference(golden: dict, seed: int, args: list[str], code: int, data: bytes):
    """Digest that every output of ``args`` must match: the stored golden
    digest at the default seed; otherwise the warm-up output's digest, if that
    output passed its structural check. None makes every such op fail."""
    if seed == DEFAULT_SEED:
        return golden[" ".join(args)]
    if code == 0 and plausible(args, data.decode()):
        return digest(data)
    return None


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Tally:
    """Attempted and failed inputs, failures by layer.

    A run repeats every input many times, for as many passes as fit in its
    time. Counting runs would make the counts depend on the host's speed, so
    an input is counted once: attempted if it ran, failed if any of its runs
    failed (a deterministic op fails on every run), wrong if any output was
    wrong. ``runs`` is the number of ops run."""

    def __init__(self) -> None:
        self.runs = 0
        self.seen: set = set()
        self.verdicts: dict = {}  # input index -> (layer, wrong) of its first failure
        self.wrong_inputs: set = set()

    def add(self, key, verdict) -> None:
        self.runs += 1
        self.seen.add(key)
        if verdict is not None:
            self.verdicts.setdefault(key, verdict)
            if verdict[1]:
                self.wrong_inputs.add(key)

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.verdicts)

    @property
    def wrong(self) -> int:
        return len(self.wrong_inputs)

    @property
    def by_layer(self) -> Counter:
        return Counter(layer for layer, _ in self.verdicts.values())


class Solve:
    """LocusParams(a), trisect, verify_trisection: the solver's hot loop."""

    name = "solve"
    pooled = False
    tols = (1e-6, 1e-9, 1e-12)

    @staticmethod
    def make_op(lib):
        locus = lib.locus

        def op(x):
            params = locus.LocusParams(x[1])
            result = locus.trisect(x[0], params, x[2])
            return result, locus.verify_trisection(result, params)

        return op

    def setup(self, lib, seed: int, workdir: str, root: str) -> None:
        self.catch = lib.errors.TrisectrixError
        self.convergence = lib.errors.MaxIterationsExceeded
        self.inputs = solver_inputs(seed, self.tols)
        self.op = self.make_op(lib)
        for x in self.inputs[:CYCLE_OPS]:
            try:
                self.check(x, self.op(x))
            except self.catch:
                pass

    def check(self, x, out):
        if isinstance(out, self.catch):
            return ("locus", False)
        result, report = out
        wrong = abs(result.theta.radians - x[0] / 3.0) > x[2]
        if wrong or not report.passes(max(x[2], 1e-12)):
            return ("locus", wrong)
        return None


class Crosscheck(Solve):
    """cross_validate: origami, chord, triple-angle and verification routes."""

    name = "crosscheck"
    tols = (1e-10, 1e-12)

    @staticmethod
    def make_op(lib):
        oracles = lib.oracles

        def op(x):
            return oracles.cross_validate(x[0], x[1], x[2])

        return op

    def check(self, x, out):
        if isinstance(out, self.catch):
            return ("locus" if isinstance(out, self.convergence) else "oracles", False)
        wrong = abs(out.theta_locus.radians - x[0] / 3.0) > x[2]
        if wrong or not out.passes(x[2]):
            worst, _ = out.worst()
            return ("locus" if wrong or worst.startswith(LOCUS_ROUTE) else "oracles", wrong)
        return None


class Emit:
    """In-process cli.main: one op is a locus table then a diagram, each
    written to a file. A single op holds both kinds so the median falls in
    one cluster rather than at the edge between two."""

    name = "emit"
    pooled = False
    warm_up = 2

    def setup(self, lib, seed: int, workdir: str, root: str) -> None:
        self.catch = lib.errors.TrisectrixError
        self.inputs = emit_inputs(seed)
        paths = self.paths = (os.path.join(workdir, "locus.csv"), os.path.join(workdir, "render.svg"))
        cli = lib.cli

        def op(pair):
            return (cli.main([*pair[0], "--output", paths[0]]),
                    cli.main([*pair[1], "--output", paths[1]]))

        self.op = op
        self.seed = seed
        self.golden = load_golden()["emit"]
        # Filled by ``check`` from each command's first output.
        self.references = {}
        for pair in self.inputs[:self.warm_up]:
            self.check(pair, op(pair))

    def check(self, pair, out):
        if isinstance(out, self.catch):
            return ("cli", False)
        failed = wrong = False
        for args, code, path in zip(pair, out, self.paths):
            if code != 0:
                failed = True
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            key = " ".join(args)
            if key not in self.references:
                self.references[key] = reference(self.golden, self.seed, args, code, data)
            if digest(data) != self.references[key]:
                failed = wrong = True
        return ("cli", wrong) if failed else None


class Cli:
    """``python -m trisectrix.cli`` as a child process, one at a time."""

    name = "cli"
    # Each input runs about five times in 25 s: too few for its fastest run
    # of 0.1 s to settle, while the median of about 200 ops holds steady.
    pooled = True

    def setup(self, lib, seed: int, workdir: str, root: str) -> None:
        self.catch = lib.errors.TrisectrixError
        self.inputs = cli_inputs(seed)
        self.root = root
        self.env = child_env(root)
        self.spans_path = os.path.join(workdir, "child-spans.json")
        self.lib = lib
        self.seed = seed
        self.golden = load_golden()["cli"]
        # Filled by ``check``: the bytes in-process ``cli.main`` writes for
        # the same arguments, so a run also checks that the child process
        # agrees with the library path.
        self.references = {}
        self.check(self.inputs[0], self.op(self.inputs[0]))

    def _run(self, argv: list[str]):
        proc = subprocess.run(argv, env=self.env, cwd=self.root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout

    def op(self, args):
        return self._run([sys.executable, "-m", "trisectrix.cli", *args])

    def traced_op(self, args):
        script = os.path.join(BENCH_DIR, "traced_cli.py")
        return self._run([sys.executable, script, self.spans_path, *args])

    def collect(self, tracer) -> None:
        """Merge the spans the last traced child wrote."""
        with open(self.spans_path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(self.spans_path)
        tracer.extend(child["spans"], child["counts"], tracer.op)

    def check(self, args, out):
        code, data = out
        if code != 0:
            return ("process", False)
        key = " ".join(args)
        if key not in self.references:
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                ref_code = self.lib.cli.main(list(args))
            self.references[key] = reference(self.golden, self.seed, args, ref_code,
                                             buf.getvalue().encode())
        if digest(data) != self.references[key]:
            return ("process", True)
        return None


WORKLOADS = {cls.name: cls for cls in (Solve, Crosscheck, Emit, Cli)}
