"""Run one command and report its wall time and resource usage as JSON.

Usage: ``python3 child.py STDIN STDOUT STDERR -- COMMAND...``, where
``STDIN`` may be ``-`` for no input.

The benchmark starts the CLI under this small launcher instead of
directly.  On Linux a process's peak RSS starts at the resident size of
the address space it replaced at ``exec``, and ``subprocess`` spawns
through ``vfork``, so a child started straight from the benchmark would
report the benchmark's own peak.  Started from this launcher it reports
at least the launcher's, which is well below the CLI's.  Times are
``time.perf_counter`` readings, comparable with the parent's on the same
machine.  The speed probe runs right before and right after the command,
and its ``scale`` factor is reported with the times.
"""

import json
import os
import signal
import subprocess
import sys
from time import perf_counter

from probe import probe, scale

#: A command still running after this many seconds is killed.
TIMEOUT_S = 120


def main() -> int:
    stdin_path, stdout_path, stderr_path, sep, *cmd = sys.argv[1:]
    if sep != "--" or not cmd:
        print(__doc__, file=sys.stderr)
        return 2
    stdin = subprocess.DEVNULL if stdin_path == "-" else open(stdin_path, "rb")
    try:
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            before = probe()
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdin=stdin, stdout=out, stderr=err)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
            signal.alarm(0)
            after = probe()
    finally:
        if stdin is not subprocess.DEVNULL:
            stdin.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "start": start,
        "end": end,
        "returncode": proc.returncode,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "scale": scale(before, after),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
