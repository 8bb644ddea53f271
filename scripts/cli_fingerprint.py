#!/usr/bin/env python3
"""One hash over the CLI's answers to the benchmark's requests.

Runs the first N ``request_stream`` requests and the first M ``sweep_calls``
of each seed through ``qcatalyst.cli.main`` in-process, with stdin, stdout
and stderr redirected as the benchmark does, and prints the number of calls
and one sha256 over every call's (exit code, stdout, stderr).  Two checkouts
that print the same hash answered every call byte for byte alike:

    python3 scripts/cli_fingerprint.py
    python3 scripts/cli_fingerprint.py --requests 50 --sweep-calls 2 --seeds 1

The package hashed is the one in this script's checkout (its ``src``), and
the inputs come from ``perfbench/inputs.py``, imported unchanged.
"""
import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

# The benchmark's inputs, and this checkout's package, put first.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
from qcatalyst import cli  # noqa: E402


def calls(seed: int, requests: int, sweep_calls: int):
    """(argv, stdin text or None) of the seed's first requests and sweep calls."""
    for request in itertools.islice(inputs.request_stream(seed), requests):
        yield request.argv, request.stdin
    for _, (source, target), d in itertools.islice(inputs.sweep_calls(seed), sweep_calls):
        yield ["sweep", "--source", ",".join(inputs.as_text(source)),
               "--target", ",".join(inputs.as_text(target)), "--denominator", str(d)], None


def answer(argv, stdin_text) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=1000, help="requests per seed")
    parser.add_argument("--sweep-calls", type=int, default=20, help="sweep calls per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = 0
    for seed in args.seeds:
        for call in calls(seed, args.requests, args.sweep_calls):
            digest.update(json.dumps(answer(*call)).encode() + b"\n")
            count += 1
    print(f"calls: {count}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
