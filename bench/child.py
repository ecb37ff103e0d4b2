"""One benchmark repetition: a fresh interpreter that times one microwrpo CLI call.

Usage: python3 child.py TIMING_JSON TRACE_JSON|- CLI_ARG...

Everything before the call into ``cli.main`` (interpreter start, imports)
is the set-up the parent measures from the spawn; the call itself is the
command's wall time. Both ends use CLOCK_MONOTONIC, which the parent
shares. With a TRACE_JSON path the layer functions are wrapped first and
the spans are written there after the command returns.
"""

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    timing_path, trace_path, *argv = sys.argv[1:]
    from microwrpo import cli

    tracer = None
    if trace_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = _now()
    code = cli.main(argv) if tracer is None else tracer.run_root(cli.main, argv)
    end = _now()
    if tracer is not None:
        tracer.dump(trace_path)
    with open(timing_path, "w") as fh:
        json.dump({"main_start": start, "main_end": end, "exit": code, "cli": cli.__file__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
