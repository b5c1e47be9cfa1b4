"""Run one ``shearstab`` CLI invocation with the benchmark's tracer installed.

    python perfbench/tracecli.py STATS.json <subcommand> [flags...]

Writes the span stats and counters of the invocation to STATS.json and
exits with the CLI's own exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from shearstab import cli

    tracer.enabled = True
    try:
        code = cli.main(argv)
    finally:
        tracer.enabled = False
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"stats": tracer.layer_stats(), "counters": dict(tracer.counters)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
