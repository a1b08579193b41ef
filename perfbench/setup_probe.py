"""Set-up probe: import ``algopt`` and load one op's generated inputs, then exit.

The parent runs this in a fresh interpreter with ``src`` on ``PYTHONPATH`` and
times it from spawn to exit; that is the set-up a user pays before the first
op can start.

    python3 perfbench/setup_probe.py <workload> <input file>...
"""

import sys
from pathlib import Path

import workloads

workloads.WORKLOADS[sys.argv[1]].load([Path(p) for p in sys.argv[2:]])
