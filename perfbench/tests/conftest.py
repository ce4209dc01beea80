"""Make the benchmark's modules and the checkout's simulator importable."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))
