"""Run one dirspec CLI command with every dirspec module traced, and write
the span totals to a JSON file.  The traced cli-cold run starts it as

    python -X importtime perfbench/clitrace.py TRACE_FILE SUBCOMMAND ARGS...

with `src/` on PYTHONPATH.  The report on stdout is the CLI's own.
"""
import json
import sys
from pathlib import Path

import layers
import tracer


def main() -> int:
    from dirspec import cli

    with tracer.Tracer() as tr:
        layers.install(tr)
        try:
            return cli.main(sys.argv[2:])
        finally:
            Path(sys.argv[1]).write_text(json.dumps(layers.raw_trace(tr)))


if __name__ == "__main__":
    sys.exit(main())
