"""System benchmark for the ``repro`` matcher: four workloads, one command.

``python3 -m perf.run`` measures the library as a user runs it (see
``perf/README.md``).  The package lives beside ``src/`` and imports
``repro`` from that source tree, so it needs no installation step.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if (SRC / "repro").is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def benchmark() -> dict:
    """The parsed ``BENCHMARK.json``: workloads, metrics, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
