"""Start, time and reap the benchmark's CLI processes from a small process.

A child's ru_maxrss also counts the memory of the process that forked it
(fork copies it; vfork shares it until exec), so children started from the
benchmark itself would report its own peak, such as the gigabytes that
synthesising a long take needs. This helper is started before the benchmark
imports numpy and stays small, so os.wait4 reports each child's own peak.

Protocol: one JSON request per line on stdin,
{"argv": [...], "env": {...}, "cwd": ..., "stdout": path, "stderr": path};
one JSON reply per line on stdout,
{"wall_s": ..., "cpu_s": ..., "maxrss_kb": ..., "code": ...}, where cpu_s is the
child's user plus system time.
The helper exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=req["env"], cwd=req["cwd"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                 "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
