"""Keyed output pins: one JSON file per output grid, under ``tests/pins/``.

A grid is a generator of ``(label, output)`` pairs, one per input, defined
next to the test that checks it. Its pin file maps each label, in grid
order, to the output's lines (the solver and count grids) or to the
output's SHA-256 (the route and SVG grids, whose text runs to megabytes). A
mismatch names the first differing labels with the current output of each,
and any missing or extra labels.

The count grid holds every exact work count the tests gate: bisection
steps, ``math.atan2`` and per-function Python calls, ``Point2`` and
``Angle`` builds, bracket collapses and mutable parts, each labelled by the
inputs it was counted over. It is stored as lines, so a re-pin diff shows
each count that moved and its new value.

Regenerate every pin file, only when an output or count change is
intended, from the repository root:

    python tests/pins.py

then review ``git diff tests/pins/``: a re-pin shows there as the inputs
whose output changed.
"""

import hashlib
import json
import sys
from pathlib import Path

PIN_DIR = Path(__file__).resolve().parent / "pins"

# Grids pinned by the SHA-256 of each output rather than by its lines.
HASHED = ("routes", "svg")

# Differing labels a mismatch prints with their current output.
SHOWN = 3


def _grids():
    """Each grid's generator, from the test module that checks it."""
    from test_locus import count_grid, solver_grid
    from test_oracles import route_grid
    from test_render import svg_grid
    return {"solver": solver_grid, "counts": count_grid, "routes": route_grid,
            "svg": svg_grid}


def _pinned(grid, outputs):
    """``outputs`` keyed by label, each in the form its pin file stores."""
    pins = {}
    for label, output in outputs:
        if label in pins:
            raise ValueError(f"{grid}: label {label!r} appears twice")
        if grid in HASHED:
            pins[label] = hashlib.sha256(output.encode()).hexdigest()
        else:
            pins[label] = output.splitlines()
    return pins


def check(grid, outputs):
    """Raise AssertionError unless ``outputs``, ``(label, output)`` pairs,
    match ``tests/pins/<grid>.json`` label for label."""
    path = PIN_DIR / f"{grid}.json"
    with open(path, encoding="utf-8") as fh:
        pins = json.load(fh)
    outputs = list(outputs)
    current = _pinned(grid, outputs)
    texts = dict(outputs)
    differing = [k for k in current if k in pins and current[k] != pins[k]]
    missing = [k for k in pins if k not in current]
    extra = [k for k in current if k not in pins]
    if not (differing or missing or extra):
        return
    report = [f"{grid}: {len(differing)} of {len(current)} outputs differ from "
              f"{path.name}; re-pin with python tests/pins.py if intended"]
    for label in differing[:SHOWN]:
        report.append(f"{label}: now\n{texts[label]}")
    if missing:
        report.append(f"missing labels: {missing}")
    if extra:
        report.append(f"extra labels: {extra}")
    raise AssertionError("\n".join(report))


def main():
    sys.path.insert(0, str(PIN_DIR.parent.parent / "src"))
    for grid, generate in _grids().items():
        with open(PIN_DIR / f"{grid}.json", "w", encoding="utf-8") as fh:
            json.dump(_pinned(grid, generate()), fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
