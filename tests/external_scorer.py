"""Line-protocol scoring child used by the backend tests.

Standard library only. Reads a header line "N p" then N rows of p
space-separated numbers from stdin and answers with one number per row.
The first argument picks the rule; the deliberately broken modes exercise
the parent's protocol-error handling.

Prefixed with ``record DIR``, any mode first saves the request bytes to
DIR/<pid>.req, so tests see exactly what each spawn was sent.

Modes:
  sum       response is the row sum (default)
  poly3     x1 + x2 + x1*x2 on the first two inputs
  cube      x1**3 + x2, curved along x1 so the difference step shows
  short     row sums but one line short
  garbage   row sums with one non-numeric line
  nan       emits nan for every row
  binary    one line of the bytes ff fe (not UTF-8) per row
  fail      exits nonzero without scoring
  failat V  row sums, but exits like fail when the first cell is V
"""

import os
import sys


def record(directory: str, request: bytes) -> None:
    """Save the request under the scorer's pid; the rename makes a file
    appear only once it is whole."""
    path = os.path.join(directory, f"{os.getpid()}.req")
    with open(path + ".tmp", "wb") as fh:
        fh.write(request)
    os.replace(path + ".tmp", path)


def main() -> int:
    args = sys.argv[1:]
    request = sys.stdin.buffer.read()
    if args[:1] == ["record"]:
        record(args[1], request)
        args = args[2:]
    mode = args[0] if args else "sum"
    if mode == "fail":
        print("refusing to score", file=sys.stderr)
        return 9
    lines = request.decode().split("\n")
    header = lines[0].split()
    n, p = int(header[0]), int(header[1])
    rows = [[float(tok) for tok in line.split()] for line in lines[1:n + 1]]
    if mode == "failat" and rows and rows[0][0] == float(args[1]):
        print("refusing to score", file=sys.stderr)
        return 9
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
