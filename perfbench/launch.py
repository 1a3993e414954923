"""Run a `repro` daemon with the benchmark's tracer installed.

    python perfbench/launch.py SPANS_OUT -- <repro arguments>

Installs the layer wrappers of :mod:`tracer`, runs
``repro.cli.main(<repro arguments>)`` -- each job the daemon runs is a
root span -- then, after it drains, writes the span summary to
SPANS_OUT as JSON and exits with the command's exit code.
"""

from __future__ import annotations

import json
import os
import sys

import common
import tracer as tracing


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_out, args = argv[0], argv[2:]
    common.check_args(args)
    from repro.cli import main as repro_main
    tracer = tracing.install(tracing.Tracer())
    try:
        code = repro_main(args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_out + ".tmp", "w") as handle:
            json.dump(tracer.dump(), handle)
        os.replace(spans_out + ".tmp", spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
