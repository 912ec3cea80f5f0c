"""`lmobf oracle-serve DIR` with the benchmark's tracing wrappers installed.

    python3 perfbench/serve_entry.py --spans FILE --skip K DIR

The first K request lines (readiness and warm-up) get no op id; line
K+j is op j of the timed loop. The spans are written to FILE as JSON
lines when stdin closes and the server returns.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--skip", type=int, default=0)
    parser.add_argument("obf_dir")
    args = parser.parse_args()

    from lmobf import cli

    tracer = tracing.Tracer()
    tracer.install()
    traced_handle = cli.handle_request_line
    lines = 0

    def handle(key, line):
        nonlocal lines
        tracer.op = lines - args.skip if lines >= args.skip else None
        lines += 1
        return traced_handle(key, line)

    cli.handle_request_line = handle
    try:
        return cli.main(["oracle-serve", args.obf_dir])
    finally:
        cli.handle_request_line = traced_handle
        tracer.uninstall()
        tracer.dump(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
