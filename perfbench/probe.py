"""Set-up probe: a fresh process imports the package and runs the
workload's program-side set-up, then exits.

    python3 perfbench/probe.py <workload> <seed>

``run.py`` times whole runs of this script; their median is ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  imports the package

workloads.WORKLOADS[sys.argv[1]].program_setup(int(sys.argv[2]))
