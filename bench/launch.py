"""Run one command as a child; report its exit status, wall seconds from spawn
to exit, CPU seconds and peak RSS as the last line of stderr.

    python3 -I -S bench/launch.py COMMAND [ARG...]

run.py starts every timed child through this small process. A process started
by vfork, as subprocess starts it, reports the peak RSS of the process that
started it as its own whenever that one is higher; started from here, a
child's peak RSS is its own.
"""

import os
import sys
import time

start = time.perf_counter()
pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall_s = time.perf_counter() - start
print(f"\nlaunch {os.waitstatus_to_exitcode(status)} {wall_s!r} "
      f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}", file=sys.stderr)
