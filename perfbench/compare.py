"""A/A and A/B comparer: ``python3 perfbench/compare.py old.json new.json``.

Both files come from ``run.py --out`` (same seed, at least 3 ``--repeats``).
For every workload row and every bounded metric it compares the medians of
the repeats against the metric's bound and prints one verdict per cell:

``ok``          the new median is not worse than the old by more than the bound
``worse``       it is, and the runs are steady enough to say so
``unresolved``  the run-to-run spread (interquartile range over the median,
                the wider side) exceeds the bound, and the two sides' runs
                overlap — the data cannot tell
``n/a``         the metric does not apply to the workload

Exits non-zero when any cell is ``worse``.  Bounds of the ``end_to_end``
metrics come from ``BENCHMARK.json``; the workload-specific metrics (which
the benchmark contract keeps in ``per_layer``, unbounded) get theirs here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: metric → (bound, relative?).  Deterministic counts repeat exactly under
#: one seed, so 1% is generous; shares are compared in absolute terms.
SPECIFIC_BOUNDS: Dict[str, Tuple[float, bool]] = {
    "query_io_per_op": (0.01, True),
    "update_io_per_op": (0.01, True),
    "vp_query_io_ratio": (0.01, True),
    "written_bytes_per_update": (0.01, True),
    "recovery_s": (0.15, True),
    "open_within_limit_share": (0.05, False),
    "open_update_p50_ms": (0.15, True),
    "failed_ops_share": (0.0, False),
}


def _cells(path: str) -> Dict[Tuple[str, str], Optional[List[float]]]:
    """(workload, metric) → the repeats' values, ``None`` where n/a."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    cells: Dict[Tuple[str, str], Optional[List[float]]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            key = (run["workload"], name)
            if name in run["na"]:
                cells[key] = None
            else:
                cells.setdefault(key, []).append(metric["value"])
    return cells


def _spread(values: List[float]) -> float:
    if len(values) < 2 or not median(values):
        return 0.0
    low, _, high = quantiles(values, n=4)
    return (high - low) / abs(median(values))


def verdict(
    old: List[float], new: List[float], bound: float, relative: bool, higher_is_better: bool
) -> Tuple[str, float]:
    """``(verdict, how much worse the new median is)`` for one cell."""
    sign = -1.0 if higher_is_better else 1.0
    worse_by = sign * (median(new) - median(old))
    if relative:
        worse_by = worse_by / abs(median(old)) if median(old) else 0.0
    if worse_by <= bound:
        return "ok", worse_by
    if relative and max(_spread(old), _spread(new)) > bound:
        apart = min(sign * v for v in new) > max(sign * v for v in old)
        return ("worse" if apart else "unresolved"), worse_by
    return "worse", worse_by


def compare(old_path: str, new_path: str) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {e["name"]: (e["bound"], True) for e in spec["end_to_end"]} | SPECIFIC_BOUNDS
    better = {e["name"]: e["better"] for e in spec["end_to_end"] + spec["per_layer"]}
    old, new = _cells(old_path), _cells(new_path)
    worst = 0
    for (workload, name), new_values in sorted(new.items()):
        if name not in bounds or (workload, name) not in old:
            continue
        old_values = old[(workload, name)]
        if old_values is None or new_values is None:
            print(f"{workload:16} {name:28} n/a")
            continue
        bound, relative = bounds[name]
        status, worse_by = verdict(
            old_values, new_values, bound, relative, better[name] == "higher"
        )
        worst |= status == "worse"
        unit = "%" if relative else " abs"
        scale = 100.0 if relative else 1.0
        print(
            f"{workload:16} {name:28} {status:10} old {median(old_values):12.4f} "
            f"new {median(new_values):12.4f}  worse by {worse_by * scale:+8.3f}{unit} "
            f"(bound {bound * scale:g}{unit}, spread {max(_spread(old_values), _spread(new_values)) * 100:.1f}%)"
        )
    return int(worst)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    sys.exit(compare(sys.argv[1], sys.argv[2]))
