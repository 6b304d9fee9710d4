"""Start each command read from stdin and report what it cost.

Input, one JSON object a line: {"argv": [...], "stdout": path, "stderr": path}.
Output, one JSON list a line: [exit code, wall s, user+sys CPU s, max-RSS MB].

The benchmark starts its timed children through this small process rather
than from itself: at exec, Linux folds the spawning process's peak RSS into
the child's ru_maxrss, so a child of the benchmark (which holds numpy and
parsed outputs) would report the benchmark's memory instead of its own.
"""
import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0]), flush=True)
