"""Set-up probe: import coarsehom, build one workload's inputs, print "ready".

    python3 perfbench/probe.py <workload> <seed>

run.py starts this in a fresh interpreter and times it up to the "ready"
line; that time is the workload's set-up time.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path above)

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
