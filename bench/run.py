"""Benchmark for trisectrix: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 1 --seconds 40 --trace 0

``--trace 0`` sets up the workload several times, then runs it untraced for
``--seconds`` and prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes over all of the inputs for ``--seconds`` and
prints the per-layer metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans, the
run record and all figures are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from spans import SPAN_NAMES, Tracer, self_times, write_spans
from stats import peak_rss_mb, run_record, samples_beyond, summarize, tail_percentile
from workloads import DEFAULT_SEED, WORKLOADS, Tally, child_env, import_library

SETUPS = 11
MIN_PASSES = 3
PROBE_ROUNDS = 5
# The README's command lines, timed as child processes in every traced run.
README_COMMANDS = (
    ["trisect", "--angle-deg", "60", "--fold", "1"],
    ["origami", "--angle-deg", "60"],
    ["locus", "--fold", "1", "--samples", "500"],
    ["verify", "--tol", "1e-10"],
    ["render", "--angle-deg", "75", "--fold", "1"],
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_ops(op, check, inputs, tally, catch, after=None):
    """Run one pass of ``op`` over ``inputs``. Only the op itself is timed;
    ``after`` and the output check run between ops. Returns the latencies in
    ns, one per input."""
    clock = time.perf_counter_ns
    latencies = []
    for i, x in enumerate(inputs):
        t0 = clock()
        try:
            out = op(x)
        except catch as exc:
            out = exc
        t1 = clock()
        latencies.append(t1 - t0)
        if after is not None:
            after()
        tally.add(i, check(x, out))
    return latencies


def timed_run(wl, seed: int, seconds: float, workdir: str, root: str):
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl.setup(import_library(), seed, workdir, root)
        setup_s.append(time.perf_counter() - t0)

    # Other tenants of a shared host slow the process for seconds at a time,
    # and they only ever slow it. So the run makes pass after pass over the
    # same inputs, and each input's figure is its fastest run: that measures
    # the program, while a run's median or its fastest stretch measures the
    # neighbours. The host also slows each core on its own, and the scheduler
    # does not move the process to the faster one; so passes run on each
    # allowed core in turn, and an input's fastest run can come from
    # whichever core was faster at the time. (The thread's CPU clock is no
    # way out: with steal time accounted, it reads 0 for some 50 us ops.)
    # A ``pooled`` workload runs each input too few times for its fastest run
    # to settle, so its figures come from all of its ops instead.
    cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    rotate = len(cores) > 1
    tally = Tally()
    fastest = [math.inf] * len(wl.inputs)
    pooled: list = []
    passes = 0
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    try:
        while passes < MIN_PASSES or time.perf_counter_ns() < deadline:
            if rotate:
                os.sched_setaffinity(0, {cores[passes % len(cores)]})
            lat = run_ops(wl.op, wl.check, wl.inputs, tally, wl.catch)
            if wl.pooled:
                pooled += lat
            else:
                fastest = list(map(min, fastest, lat))
            passes += 1
    finally:
        if rotate:
            os.sched_setaffinity(0, cores)

    samples = pooled if wl.pooled else fastest
    n = len(samples)
    tail = tail_percentile(n)
    summary = summarize(samples, tail)
    metrics = {
        "ops_per_s": summary["ops_per_s"],
        "latency_p50_us": summary["p50_us"],
        "latency_tail_us": summary["tail_us"],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli"),
    }
    over = (f"all {n} ops" if wl.pooled else f"each of {n} inputs at its fastest of {passes} runs")
    over += f", {passes} passes rotated over {len(cores) if rotate else 1} cores"
    notes = {
        "ops_per_s": over,
        "latency_p50_us": over,
        "latency_tail_us": f"p{float(tail):g}, {samples_beyond(n, tail)} samples beyond it, {over}",
        "setup_s": f"median of {SETUPS} set-ups: " + ", ".join(f"{s:.4f}" for s in setup_s),
        "peak_rss_mb": "children's peak" if wl.name == "cli" else "this process",
    }
    return metrics, notes, tally, [], {"passes": passes, "setup_s": setup_s}


def _fold(agg: dict, spans: list) -> None:
    """Add each span's call, self time and total time to its name's totals."""
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        a = agg.setdefault(name, [0, 0, 0])
        a[0] += 1
        a[1] += own
        a[2] += end - start


def _time_child(argv: list[str], env: dict, root: str) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=root, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=True)
    return (time.perf_counter() - t0) * 1e3


def process_probe(root: str) -> dict:
    """Interpreter start, import, and the rest of a CLI command, in ms. Each
    difference is taken within one round, so the host's load, which drifts
    between rounds, cancels."""
    env = child_env(root)
    py = sys.executable
    bare, imported, commands = [], [], []
    for _ in range(PROBE_ROUNDS):
        bare.append(_time_child([py, "-c", "pass"], env, root))
        imported.append(_time_child([py, "-c", "import trisectrix.cli"], env, root))
        commands.append(statistics.median(
            _time_child([py, "-m", "trisectrix.cli", *args], env, root)
            for args in README_COMMANDS))
    return {
        "process.interpreter_ms": statistics.median(bare),
        "process.import_ms": statistics.median(i - b for i, b in zip(imported, bare)),
        "process.command_ms": statistics.median(c - i for c, i in zip(commands, imported)),
    }


def coverage_probe(lib, workdir: str):
    """Traced calls of every spanned function, for the per-call figures of
    functions the workload itself never calls."""
    tracer = Tracer()
    path = os.path.join(workdir, "probe.out")
    with tracer.installed():
        for _ in range(20):
            lib.oracles.cross_validate(math.radians(60.0), 1.0, 1e-12)
            lib.cli.main(["locus", "--samples", "500", "--output", path])
            lib.cli.main(["render", "--angle-deg", "75", "--output", path])
    agg = {}
    _fold(agg, tracer.spans)
    return agg, tracer.counts, tracer.spans


def traced_run(wl, seed: int, seconds: float, workdir: str, root: str):
    lib = import_library()
    wl.setup(lib, seed, workdir, root)
    traced_op = getattr(wl, "traced_op", wl.op)
    collect = getattr(wl, "collect", None)

    tally = Tally()
    untraced_rates, traced_rates = [], []
    agg, counts = {}, Counter()
    traced_ops = traced_ns = 0
    kept = None
    op_id = 0
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while True:
        lat = run_ops(wl.op, wl.check, wl.inputs, tally, wl.catch)
        untraced_rates.append(len(lat) * 1e9 / sum(lat))

        tracer = Tracer()
        tracer.op = op_id

        def op(x, tracer=tracer):
            tracer.op += 1
            return traced_op(x)

        after = (lambda tracer=tracer: collect(tracer)) if collect else None
        with tracer.installed():
            lat = run_ops(op, wl.check, wl.inputs, tally, wl.catch, after=after)
        op_id = tracer.op
        traced_rates.append(len(lat) * 1e9 / sum(lat))
        traced_ops += len(lat)
        traced_ns += sum(lat)
        _fold(agg, tracer.spans)
        counts.update(tracer.counts)
        if kept is None:
            kept = tracer.spans
        if time.perf_counter_ns() >= deadline:
            break

    probe_agg, probe_counts, probe_spans = coverage_probe(lib, workdir)

    def source(name):
        return (agg, counts) if name in agg else (probe_agg, probe_counts)

    metrics, units, notes = {}, {}, {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    put("geom.point2.per_op", counts["geom.point2"] / traced_ops, "count")
    put("geom.angle.per_op", counts["geom.angle"] / traced_ops, "count")
    trisect_calls = agg.get("locus.trisect", [0])[0]
    put("locus.trisect.calls", trisect_calls / traced_ops, "count")
    put("locus.trisect.iterations_mean",
        counts["locus.trisect.iterations"] / trisect_calls if trisect_calls else 0.0, "count")
    for name in SPAN_NAMES:
        a, c = source(name)
        calls, self_ns, total_ns = a[name]
        if name == "locus.sample_locus":
            key, value = f"{name}.us_per_point", total_ns / 1e3 / c[f"{name}.points"]
        else:
            key, value = f"{name}.self_us", self_ns / 1e3 / calls
        put(key, value, "us")
        if name not in agg:
            notes[key] = "not called by this workload; from the coverage probe"
    put("locus.failed", tally.by_layer["locus"] / tally.attempted, "ratio")
    put("oracles.failed", tally.by_layer["oracles"] / tally.attempted, "ratio")
    a, c = source("render.render_svg")
    put("render.svg_bytes", c["render.svg_bytes"] / a["render.render_svg"][0], "bytes")
    a, c = source("cli.main")
    put("cli.output_bytes", c["cli.output_bytes"] / a["cli.main"][0], "bytes")
    for name, value in process_probe(root).items():
        put(name, value, "ms")
    for name in SPAN_NAMES:
        put(f"{name}.share", agg.get(name, [0, 0])[1] / traced_ns, "ratio")
    # Adjacent passes share the host's load, so each ratio compares like with like.
    put("trace.overhead_ratio",
        statistics.median(t / u for t, u in zip(traced_rates, untraced_rates)), "ratio")
    notes["trace.overhead_ratio"] = f"{len(traced_rates)} pairs of passes of {len(wl.inputs)} ops"

    extra = {"traced_ops": traced_ops, "untraced_rates": untraced_rates,
             "traced_rates": traced_rates, "counts": dict(counts)}
    return (metrics, units), notes, tally, kept + probe_spans, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "trisectrix", "cli.py")):
        print("bench: src/trisectrix not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    out_dir = os.path.join(root, ".bench_out")
    tmp_parent = os.path.join(root, ".bench_tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_parent)
    wl = WORKLOADS[args.workload]()
    try:
        if args.trace:
            (metrics, units), notes, tally, spans, extra = traced_run(
                wl, args.seed, args.seconds, workdir, root)
        else:
            metrics, notes, tally, spans, extra = timed_run(
                wl, args.seed, args.seconds, workdir, root)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass

    record = run_record(root, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans:
        write_spans(os.path.join(out_dir, f"spans-{stem}.jsonl"), spans)
    failed_ratio = tally.failed / tally.attempted
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "attempted": tally.attempted, "failed": tally.failed,
                   "runs": tally.runs,
                   "wrong": tally.wrong, "failed_ratio": failed_ratio,
                   "metrics": metrics, "notes": notes, "extra": extra}, fh, indent=1)

    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"  {name:40s} {value:<14.6g} {units[name]:6s}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_ratio':40s} {failed_ratio:<14.6g} {'ratio':6s}"
          f"  ({tally.failed} failed of {tally.attempted} inputs, each counted once "
          f"over {tally.runs} ops; {tally.wrong} with wrong output)")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
