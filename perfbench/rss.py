"""Run a command and write its peak RSS in KiB to a file.

    python3 rss.py OUT_FILE COMMAND...

The kernel's max-RSS of a child counts the address space it was forked
from, so a child started by the (large) benchmark process reports the
benchmark's size.  Started from this small process instead, the command's
figure is its own.  Standard streams and the exit status pass through.
"""
import resource
import subprocess
import sys

code = subprocess.call(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    handle.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
sys.exit(code if code >= 0 else 128 - code)
