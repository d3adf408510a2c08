"""Run one command and report its exit code, wall time, CPU time and peak RSS.

    python3 -S -I perfbench/launch.py FD PROGRAM ARG...

The command inherits stdin, stdout, stderr and the environment; the
report goes to file descriptor FD as one line "code wall_s cpu_s maxrss_kb".
The benchmark spawns every op through this small interpreter because, at
exec, the kernel counts the peak RSS of the process image being replaced
into the new program's: spawned straight from the benchmark driver, an op
would report at least the driver's own peak RSS.
"""

import os
import sys
import time


def main():
    fd = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(fd, False)
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    os.write(fd, b"%d %r %r %d\n" % (os.waitstatus_to_exitcode(status), wall,
                                      usage.ru_utime + usage.ru_stime,
                                      usage.ru_maxrss))
    return 0


if __name__ == "__main__":
    sys.exit(main())
