"""Run a ``repro`` CLI verb with span-recording wrappers installed.

Usage::

    python3 servebench/traced_server.py SPANS.json serve --port 0 ...
    python3 servebench/traced_server.py SPANS.json route --backend ...

The wrappers are installed on the public classes and functions of each
layer before the CLI builds and starts its server, so the process runs
the same configuration and code path as ``python -m repro serve``.  The
spans stay in memory and are written to ``SPANS.json`` when the CLI
returns after its graceful drain.  Worker processes spawned by the
pool carry no wrappers; worker compute comes from the ``stats`` op.
"""

from __future__ import annotations

import sys


def main() -> int:
    import tracer

    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
