"""Run one boxprobe CLI command with layer tracing.

    python3 bench/traced_cli.py SUMMARY.json <boxprobe arguments...>

The benchmark's traced ``cli_startup`` runs use this in place of
``python -m boxprobe``.  It writes the per-layer totals to SUMMARY.json and
exits with the command's exit code.
"""

import json
import os
import sys

import boxprobe.cli

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.layers import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    summary_path, args = argv[0], argv[1:]
    with Tracer() as tracer:
        code = boxprobe.cli.main(args)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
