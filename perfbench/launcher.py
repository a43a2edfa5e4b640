"""Traced CLI process: ``python launcher.py SPANS_OUT COMMAND [ARGS...]``.

Imports ``igkls.cli`` under a ``cli.import`` span, installs the tracer's
wrappers, runs ``igkls.cli.main(argv)`` under a ``cli.main`` span and writes
the spans and counters to SPANS_OUT as JSON.  The exit code is the CLI's.
Untraced runs use ``python -m igkls.cli`` instead.
"""

import json
import sys

from tracer import Recorder, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.op = 0
    idx = rec.open("cli.import")
    import igkls.cli
    rec.close(idx)
    install(rec)
    idx = rec.open("cli.main")
    try:
        code = igkls.cli.main(argv)
    finally:
        rec.close(idx)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
