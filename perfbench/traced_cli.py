"""Run one `pql` command with layer tracing and write its trace as JSON.

Usage: python3 traced_cli.py TRACE_OUT ROUND PQL_ARGS...

The trace (spans, self times, counts, and the wall-clock time at which
`import pql.cli` finished) goes to TRACE_OUT when the command ends; the
exit code is the command's.
"""

import time

import pql.cli

IMPORTED_AT = time.time()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from layertrace import Tracer  # noqa: E402


def main() -> int:
    out, rnd, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.round = rnd
    tracer.install()
    try:
        code = pql.cli.main(argv)
    finally:
        tracer.uninstall()
    doc = tracer.to_json()
    doc["imported_at"] = IMPORTED_AT
    Path(out).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
