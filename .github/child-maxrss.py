"""Run a command; write the largest peak resident set of any child in MiB.

    python3 child-maxrss.py OUT CMD [ARG...]

The figure is ``ru_maxrss`` of the waited-for children (KiB on Linux):
the largest resident set any one of them reached.  Exits with the
command's status.
"""

import resource
import subprocess
import sys

out, cmd = sys.argv[1], sys.argv[2:]
status = subprocess.run(cmd, check=False).returncode
kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(out, "w", encoding="utf-8") as fh:
    fh.write(f"{kib / 1024:.1f}\n")
sys.exit(status)
