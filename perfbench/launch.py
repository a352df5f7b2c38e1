"""Run one command; record its exit code, wall time and its own peak RSS.

    python3 -S launch.py RESULT_JSON TIMEOUT_S COMMAND [ARG ...]

The benchmark starts every child through this small process.  Linux counts
in a child's peak RSS the RSS of the process it was forked from, so a CLI
child forked from the benchmark itself, which holds numpy and the inputs,
would read at least as large as the benchmark.  Forked from here it reads
as itself.  The child is killed once it has run for TIMEOUT_S seconds.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    result_path, timeout_s, command = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"exit": proc.returncode, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
