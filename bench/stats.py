"""Latency statistics, peak memory and the run record."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
from fractions import Fraction

# Candidate tail percentiles, as exact fractions so "samples beyond" is exact.
LADDER = tuple(Fraction(p) for p in ("50", "75", "90", "99", "99.9", "99.99", "99.999"))


def rank(n: int, pct: Fraction) -> int:
    """1-based nearest-rank index of percentile ``pct`` among ``n`` samples."""
    return max(1, math.ceil(pct * n / 100))


def samples_beyond(n: int, pct: Fraction) -> int:
    return n - rank(n, pct)


def tail_percentile(n: int) -> Fraction:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    return max((p for p in LADDER if samples_beyond(n, p) >= 10), default=LADDER[0])


def percentile(sorted_values: list, pct: Fraction):
    return sorted_values[rank(len(sorted_values), pct) - 1]


def summarize(latencies_ns: list[int], tail: Fraction) -> dict:
    """Throughput, median and tail latency of a set of op times."""
    s = sorted(latencies_ns)
    return {
        "ops": len(s),
        "ops_per_s": len(s) * 1e9 / sum(s),
        "p50_us": percentile(s, Fraction(50)) / 1e3,
        "tail_us": percentile(s, tail) / 1e3,
    }


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size of this process, or of its largest waited-for
    child, in MiB (``ru_maxrss`` is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_record(root: str, seed: int) -> dict:
    """Metadata stored with each result; none of it is a gated metric."""
    src = os.path.join(root, "src", "trisectrix")
    lines = 0
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "executable": os.path.basename(sys.executable),
    }
