"""perfbench — the repo's one benchmark (see README.md and ../BENCHMARK.json).

Run from a checkout, the package finds ``src/`` by itself, so neither an
install nor ``PYTHONPATH`` is needed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
