"""Traced cold invocation of the superalg CLI.

Usage: python3 perfbench/cli_trace.py SPANS_OUT OP_ID SUBCOMMAND [ARGS...]

Behaves like ``superalg SUBCOMMAND ARGS...`` and writes its spans to
SPANS_OUT: ``cli.import`` for importing the package, ``cli.<subcommand>`` for
the command itself, and the layer spans beneath it.
"""

import sys
import time

start = time.perf_counter()
import superalg.cli  # noqa: E402  (the import is what is being timed)
end = time.perf_counter()

import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(op)
    tracer.spans.append(("cli.import", start, end, -1, op, None))
    tracer.install()
    try:
        return tracer.span(f"cli.{argv[0]}", superalg.cli.main, argv)
    finally:
        tracer.uninstall()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main())
