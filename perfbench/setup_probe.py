"""Cold start as a command-line user pays it: a fresh interpreter imports
ewens.cli (which pulls in every module) and serves one warm-up request.

    python3 perfbench/setup_probe.py <workload>

run.py times this whole process from the outside.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import ewens.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]]().warm_up()
