"""Line-protocol scorer for the external-fd workload: f = x1 + x2 + x1*x2.

Standard library only. Reads a header line "N p", then N rows of p
space-separated numbers on stdin, and answers with one number per row.

This is the benchmark's own copy of the poly3 rule in
tests/external_scorer.py. It is kept apart on purpose, so that an edit to
the test scorer cannot move the external-fd figures. Change it only
together with the benchmark, and measure the parent again after.
"""

import sys


def main() -> int:
    header = sys.stdin.readline().split()
    n, p = int(header[0]), int(header[1])
    rows = [[float(tok) for tok in sys.stdin.readline().split()]
            for _ in range(n)]
    for row in rows:
        if len(row) != p:
            print("bad row width", file=sys.stderr)
            return 2
    out = [repr(r[0] + r[1] + r[0] * r[1]) for r in rows]
    sys.stdout.write("\n".join(out))
    if out:
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
