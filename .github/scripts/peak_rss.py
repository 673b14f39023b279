"""Run a command and fail unless its peak resident set stays below a limit.

    python .github/scripts/peak_rss.py LIMIT_MB COMMAND...

The peak is the child's ru_maxrss (kilobytes on Linux).  Exit status: the
command's own when it fails, 1 when it peaks at or above the limit, else 0.
"""

import resource
import subprocess
import sys

limit_mb, command = float(sys.argv[1]), sys.argv[2:]
status = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak_mb:.0f} MB (limit {limit_mb:.0f} MB): {' '.join(command)}")
sys.exit(status or int(peak_mb >= limit_mb))
