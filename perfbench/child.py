"""Run the bhamsys CLI in this process, as the ``bhamsys`` entry point would,
and record when its configuration was validated.

Usage: ``python3 perfbench/child.py STATS_JSON TRACE CLI_ARGS...``

``TRACE`` is ``1`` to wrap the library's public functions with the spans of
:mod:`tracer`, ``0`` otherwise.  On exit the child writes STATS_JSON with
the import and parse times, the monotonic time at which ``parse_config``
returned (the parent subtracts its spawn time to get ``setup_s``) and, when
tracing, the aggregated spans and counts.  The exit code is the CLI's.
"""

import json
import sys
import time


def main():
    stats_path, trace, *argv = sys.argv[1:]
    start = time.perf_counter()
    import bhamsys.cli as cli
    stats = {"import_s": time.perf_counter() - start}
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    parse = cli.parse_config

    def parse_config(*args, **kwargs):
        begin = time.perf_counter()
        cfg = parse(*args, **kwargs)
        stats["parse_s"] = time.perf_counter() - begin
        stats["parsed_at"] = time.monotonic()
        return cfg

    cli.parse_config = parse_config
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            stats.update(tracer.report())
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main())
