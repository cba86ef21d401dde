"""Spawn benchmark operations from a small process and report their usage.

usage: python3 launch.py   (requests on stdin, one JSON object per line)

A request is {"argv": [...], "stdout": path, "stderr": path, "timeout_s": s}.
The launcher runs argv with this process's environment, waits for it and
answers with one line {"code": int or null, "wall_s": s, "maxrss_kb": kb};
code is null when the process was killed at its timeout.

On Linux a child's peak resident set (ru_maxrss) includes the peak of the
process it was spawned from.  The benchmark driver holds the reference
data, so operations are spawned from here, a process that imports
nothing heavy, to keep the driver's memory out of the measurement.
"""

import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    status = usage = None
    signal.setitimer(signal.ITIMER_REAL, max(request["timeout_s"], 1e-3))
    try:
        _, status, usage = os.wait4(pid, 0)
    except Timeout:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    if usage is None:
        os.kill(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        code = None
    else:
        code = os.waitstatus_to_exitcode(status)
    return {"code": code, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
