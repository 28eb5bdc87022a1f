"""Run ``repro-holiday`` with the perfbench layer spans installed.

    PYTHONPATH=src python perfbench/serve_launcher.py SPANS_OUT serve [serve arguments]

Installs the spans of ``spans.py`` in this process, then hands the rest of
the command line to the CLI's own ``main``.  When the CLI returns (``serve``
returns on Ctrl-C), the span summary is written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro import cli

import spans


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    out, cli_args = Path(argv[0]), argv[1:]
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return cli.main(cli_args)
    finally:
        out.write_text(json.dumps(recorder.summary()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
