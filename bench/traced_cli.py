"""Run one trisectrix command with span tracing, for the traced ``cli`` workload.

Usage: python bench/traced_cli.py SPANS_JSON COMMAND [FLAGS...]

Imports ``trisectrix.cli`` (``src`` must be on PYTHONPATH), runs
``main([COMMAND, FLAGS...])`` with the tracer installed, writes the spans and
counts to SPANS_JSON and exits with main's code. Standard output is the
command's own.
"""

import json
import sys

from spans import Tracer

if __name__ == "__main__":
    import trisectrix.cli

    tracer = Tracer()
    with tracer.installed():
        code = trisectrix.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    sys.exit(code)
