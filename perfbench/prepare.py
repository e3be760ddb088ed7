"""Child process that writes one workload's inputs for a seed.

Usage: ``python3 perfbench/prepare.py <workload> <seed> <output dir>``
(``run.py`` starts it with ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.prepare(workload, seed, outdir)
