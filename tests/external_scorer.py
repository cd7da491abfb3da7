"""Line-protocol scoring child used by the backend tests.

Standard library only. Reads a header line "N p" then N rows of p
space-separated numbers from stdin and answers with one number per row.
The first argument picks the rule; the deliberately broken modes exercise
the parent's protocol-error handling.

Modes:
  sum       response is the row sum (default)
  poly3     x1 + x2 + x1*x2 on the first two inputs
  cube      x1**3 + x2, curved along x1 so the difference step shows
  short     row sums but one line short
  garbage   row sums with one non-numeric line
  nan       emits nan for every row
  binary    one line of the bytes ff fe (not UTF-8) per row
  fail      exits nonzero without scoring
"""

import sys


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "sum"
    if mode == "fail":
        print("refusing to score", file=sys.stderr)
        return 9
    header = sys.stdin.readline().split()
    n, p = int(header[0]), int(header[1])
    rows = [[float(tok) for tok in sys.stdin.readline().split()]
            for _ in range(n)]
    for row in rows:
        if len(row) != p:
            print("bad row width", file=sys.stderr)
            return 2

    if mode == "poly3":
        values = [r[0] + r[1] + r[0] * r[1] for r in rows]
    elif mode == "cube":
        values = [r[0] ** 3 + r[1] for r in rows]
    else:
        values = [sum(r) for r in rows]

    out = [repr(v) for v in values]
    if mode == "short" and out:
        out = out[:-1]
    elif mode == "garbage" and out:
        out[len(out) // 2] = "not-a-number"
    elif mode == "nan":
        out = ["nan"] * len(out)
    elif mode == "binary":
        sys.stdout.buffer.write(b"\xff\xfe\n" * len(out))
        return 0
    sys.stdout.write("\n".join(out))
    if out:
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
