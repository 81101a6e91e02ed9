#!/usr/bin/env python3
"""Byte-exact regression check for a deterministic simulation benchmark.

Usage: check_figure.py <binary> <BENCH_name.json>

Runs the binary with stdout and stderr merged, exactly as scripts/bench.sh
does when it archives a run, and requires the transcript to equal the
`raw` field of the committed BENCH_<name>.json. Exit 0 on a match; on a
mismatch, print the first differing line and exit 1.
"""
import json
import subprocess
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json, encoding="utf-8") as f:
        expected = json.load(f)["raw"]
    run = subprocess.run([binary], stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, check=False)
    actual = run.stdout.decode("utf-8", errors="replace")
    if run.returncode != 0:
        print(f"{binary} exited {run.returncode}")
        return 1
    if actual == expected:
        return 0
    want, got = expected.splitlines(), actual.splitlines()
    for i in range(max(len(want), len(got))):
        w = want[i] if i < len(want) else "<end of transcript>"
        g = got[i] if i < len(got) else "<end of output>"
        if w != g:
            print(f"{binary}: transcript differs from {bench_json} "
                  f"at line {i + 1}")
            print(f"  expected: {w!r}")
            print(f"  actual:   {g!r}")
            return 1
    print(f"{binary}: transcript differs from {bench_json} "
          "in line endings only")
    return 1


if __name__ == "__main__":
    sys.exit(main())
