"""Start the benchmark's child processes and report what each one cost.

Reads one JSON request per line on stdin (``argv``, ``cwd``, ``env``,
``stdout``, ``stderr``: the last two are file paths), runs the process to
completion and answers with one JSON line: ``seconds`` (wall time from
start to exit), ``rss_mb`` (the child's own peak resident set, from
``wait4``) and ``code`` (its exit status).  Exits at end of input.

The benchmark starts its children through this small process because Linux
charges a child, at ``exec``, with the peak resident set of the process that
forked it: spawned straight from the benchmark, which holds the reference
data, every child would report at least the benchmark's own peak.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], stdout=out, stderr=err, env=request["env"]
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        answer = {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
