"""Traced stand-in for ``python -m dfrep.cli``.

Usage: ``python3 perfbench/cli_runner.py LAYERS SPANS ARGV...`` with
``PYTHONPATH=src``.  Times the cold ``import dfrep.cli``, installs the
timing wrappers, runs ``dfrep.cli.main(ARGV)`` and exits with its code.
The operation's layer metrics go to LAYERS and its spans to SPANS.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    layers_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import dfrep.cli

    import_s = time.perf_counter() - t0
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.begin_op()
    try:
        rc = dfrep.cli.main(argv)
    finally:
        layers = tracer.end_op()
        layers["cli.import_s"] = import_s
        with open(layers_path, "w", encoding="utf-8") as fh:
            json.dump(layers, fh)
        tracer.write(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
