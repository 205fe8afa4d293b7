"""Traced stand-in for ``python -m misobc.cli``.

Usage: ``python cli_shim.py TRACE_FILE OP_ID ARG...``.  Times the import
of ``misobc.cli`` as a span, runs ``misobc.cli.main(ARG...)`` with the
tracer installed, writes the tracer's record to TRACE_FILE as JSON and
exits with the command's exit code.  The record also carries when this
file started and finished running, so the caller can attribute
interpreter start-up and tear-down.
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    trace_file, op = sys.argv[1], int(sys.argv[2])
    tracer = Tracer()
    tracer.op = op
    with tracer.span("cli.import"):
        from misobc import cli
    tracer.install()
    try:
        code = cli.main(sys.argv[3:])
    except SystemExit as stop:  # argparse rejects bad flags this way
        code = stop.code
    finally:
        tracer.uninstall()
        record = dict(tracer.record(), started=STARTED, finished=perf_counter())
        with open(trace_file, "w", encoding="utf-8") as fp:
            json.dump(record, fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
