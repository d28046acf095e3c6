"""The claims benchmark: four client-visible workloads over a real TcpCluster.

``python -m benchmarks.e2e --seed N`` runs the suite; see README.md in
this directory for the rig, the workloads, both metric tables and the
interaction predictions.  Nothing here is imported by ``repro`` itself.
"""

from __future__ import annotations

import os
import sys
import time

#: Set-up time is counted from here: a fresh process pays the ``repro``
#: imports (numpy included) before its first operation, so they belong
#: to ``setup_s``.
PROCESS_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

# The benchmark is started as ``python3 -m benchmarks.e2e`` from the root
# of a checkout with no PYTHONPATH, so it finds the program itself.
_SRC = os.path.join(REPO_ROOT, "src")
if not os.path.isdir(_SRC):
    raise ImportError(f"benchmarks.e2e needs the program under test at {_SRC}")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
