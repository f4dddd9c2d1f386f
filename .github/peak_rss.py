"""Run one dfrep command as a child process and check its peak RSS.

Usage: ``python .github/peak_rss.py <ceiling_mb> <command> [dfrep flags...]``

The child is ``python -m dfrep.cli <command> ...`` with its stdout
discarded.  Prints ``<command> peak RSS <MB> MB, ceiling <ceiling_mb> MB``
and exits with the child's code if it failed, else 1 if the peak is above
the ceiling, else 0.  Linux only: ``ru_maxrss`` is read in kilobytes.
"""

import os
import subprocess
import sys

ceiling_mb = int(sys.argv[1])
argv = sys.argv[2:]
child = subprocess.Popen([sys.executable, "-m", "dfrep.cli", *argv], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
peak_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
print(f"{argv[0]} peak RSS {peak_mb:.1f} MB, ceiling {ceiling_mb} MB")
sys.exit(os.waitstatus_to_exitcode(status) or int(peak_mb > ceiling_mb))
