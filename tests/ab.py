"""One-process A/B timing of two trisectrix checkouts.

Loads ``src/trisectrix`` from a base and a changed checkout as two packages
in one process, and runs the benchmark's ``solve`` or ``crosscheck`` op over
its default seed's inputs from ``bench/workloads.py``. It first checks that
both trees give the same repr, or the same error, for every input, then
times the two in alternating rounds: in each round every input's figure is
its fastest of ``RUNS`` runs, as in ``bench/run.py``, and the round's ops/s
is the input count over their sum. It prints each side's median ops/s over
the rounds, the median of the rounds' changed-to-base ratios, and the
rounds the change won. It gates no ratio: it exits 1 only when the outputs
differ.

Run by hand from the repository root, with the base checkout first:

    python tests/ab.py ../base . --workload crosscheck --rounds 10
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import DEFAULT_SEED, MODULES, WORKLOADS, solver_inputs

# Runs of each input per side and round.
RUNS = 20


def load(checkout, name):
    """The modules of ``checkout``'s package, imported as package ``name``."""
    init = Path(checkout, "src", "trisectrix", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def outputs(op, catch, inputs):
    """Each input's output repr, or its error's type and message."""
    for x in inputs:
        try:
            yield repr(op(x))
        except catch as exc:
            yield f"{type(exc).__name__}: {exc}"


def ops_per_s(op, catch, inputs):
    """Input count over the sum of each input's fastest of ``RUNS`` runs."""
    clock = time.perf_counter_ns
    fastest = [float("inf")] * len(inputs)
    for _ in range(RUNS):
        for i, x in enumerate(inputs):
            t0 = clock()
            try:
                op(x)
            except catch:
                pass
            fastest[i] = min(fastest[i], clock() - t0)
    return len(inputs) * 1e9 / sum(fastest)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("base")
    parser.add_argument("changed")
    parser.add_argument("--workload", choices=("solve", "crosscheck"), default="crosscheck")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = solver_inputs(DEFAULT_SEED, workload.tols)
    sides = []
    for name, checkout in (("base", args.base), ("changed", args.changed)):
        lib = load(checkout, f"trisectrix_{name}")
        sides.append((name, workload.make_op(lib), lib.errors.TrisectrixError))
    for x, a, b in zip(inputs, *(outputs(op, catch, inputs) for _, op, catch in sides)):
        if a != b:
            print(f"outputs differ at input {x!r}:\n  base    {a}\n  changed {b}")
            return 1
    print(f"{args.workload}: {len(inputs)} inputs give the same output on both sides")
    rates = {"base": [], "changed": []}
    for r in range(args.rounds):
        for name, op, catch in sides if r % 2 == 0 else sides[::-1]:
            rates[name].append(ops_per_s(op, catch, inputs))
    base, changed = (statistics.median(rates[name]) for name in ("base", "changed"))
    # Each round's ratio is of two sides timed back to back, so a host that
    # slows for a few rounds moves it less than it moves either median.
    ratios = [c / b for b, c in zip(rates["base"], rates["changed"])]
    won = sum(r > 1.0 for r in ratios)
    print(f"ops/s median: base {base:.1f}, changed {changed:.1f}; median round ratio "
          f"{statistics.median(ratios):.3f}; change won {won} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
