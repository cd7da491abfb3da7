"""Run one command and print its wall time and resource use as JSON.

Usage: python bench/launch.py TIMEOUT_S LOG_PATH -- CMD [ARG ...]

The command's stdout and stderr are appended to LOG_PATH. After TIMEOUT_S
seconds its whole process group is killed. The one line printed holds
wall (s), cpu (user+sys s of the command and the children it waited for),
rss_mb (its max-RSS) and code (its exit code, -9 if killed).

run.py starts every measured process through this launcher. Linux counts
the memory of the forking process in a child's max-RSS, so a command forked
straight from run.py, which holds the reference data of the checks, would
report run.py's size. This launcher is a fresh interpreter with
the standard library only, smaller than any atdev command.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time


def main() -> int:
    timeout, log = float(sys.argv[1]), sys.argv[2]
    cmd = sys.argv[sys.argv.index("--") + 1:]
    with open(log, "a") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=sink,
                                stderr=subprocess.STDOUT, start_new_session=True)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], timeout)[0]:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
