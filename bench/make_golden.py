"""Regenerate bench/golden.json: the SHA-256 of every ``emit`` and ``cli``
output at the default seed, from the library under ``src``.

Run from the repository root, only when an output change is intended:

    python3 bench/make_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from workloads import (BENCH_DIR, DEFAULT_SEED, cli_inputs, digest, emit_inputs,
                       import_library, plausible)


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    cli = import_library().cli
    golden = {"emit": {}, "cli": {}}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        path = os.path.join(tmp, "out")
        for args in (a for pair in emit_inputs(DEFAULT_SEED) for a in pair):
            if cli.main([*args, "--output", path]) != 0:
                raise SystemExit(f"exit code != 0 for {args}")
            with open(path, "rb") as fh:
                data = fh.read()
            if not plausible(args, data.decode()):
                raise SystemExit(f"implausible output for {args}")
            golden["emit"][" ".join(args)] = digest(data)
    for args in cli_inputs(DEFAULT_SEED):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = cli.main(list(args))
        if code != 0 or not plausible(args, buf.getvalue()):
            raise SystemExit(f"bad output for {args}")
        golden["cli"][" ".join(args)] = digest(buf.getvalue().encode())
    with open(os.path.join(BENCH_DIR, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
