"""Choosing the outlier threshold τ (Section 5.2, Equations 8-10).

For one DVA partition, objects are expressed in the DVA's rotated frame so
that the DVA is the x-axis.  An object whose perpendicular speed (the |v_y|
component in that frame) exceeds τ is exiled to the outlier partition.

The paper derives that minimizing the total rate of search-area expansion of
the DVA partition plus the outlier partition (Equation 9) reduces to
minimizing::

    n_d * ( v_yd(n_d) - v_ymax )                      (Equation 10)

where ``n_d`` is the number of objects kept in the DVA partition,
``v_yd(n_d)`` is the maximum perpendicular speed among those kept, and
``v_ymax`` is the maximum perpendicular speed over all objects.  Since
``v_yd`` depends on the data distribution, the paper evaluates Equation 10
over an equal-width cumulative histogram of perpendicular speeds and keeps
the candidate with the smallest objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Histogram resolution used by the experiments (Section 6: "a velocity
#: histogram containing 100 buckets for determining the τ value").
DEFAULT_TAU_HISTOGRAM_BUCKETS = 100


@dataclass(frozen=True)
class TauSearchResult:
    """Outcome of the τ search for one DVA partition."""

    tau: float
    objective: float
    candidates: Tuple[Tuple[float, float], ...]
    """Every evaluated ``(tau_candidate, objective_value)`` pair."""


def expansion_rate_objective(n_d: int, v_yd: float, v_ymax: float) -> float:
    """Equation 10: the part of the expansion rate that depends on τ.

    Of the full Equation 8/9 context only ``n_d (v_yd - v_ymax)`` varies with τ.
    """
    return n_d * (v_yd - v_ymax)


def total_expansion_rate(
    t: float,
    n_d: int,
    n_total: int,
    n_per_leaf: float,
    d: float,
    v_xmax: float,
    v_ymax: float,
    v_yd: float,
) -> float:
    """Equation 9 in full: d TA(t, n_d) / dt.

    Provided for completeness (tests verify that minimizing Equation 10 also
    minimizes Equation 9 for any fixed ``t``).
    """
    term_dva = (2.0 * n_d / n_per_leaf) * ((v_yd - v_ymax) * (d + 4.0 * v_xmax * t))
    term_all = (2.0 * n_total / n_per_leaf) * (
        d * v_ymax + v_xmax * (d + 4.0 * v_ymax * t)
    )
    return term_dva + term_all


def optimal_tau(
    perpendicular_speeds: Sequence[float],
    histogram_buckets: int = DEFAULT_TAU_HISTOGRAM_BUCKETS,
) -> TauSearchResult:
    """Optimal outlier threshold τ for one DVA partition.

    Args:
        perpendicular_speeds: |v_y| in the DVA frame for every sampled object
            assigned to this partition.
        histogram_buckets: number of equal-width buckets of the cumulative
            histogram from which τ candidates are drawn.

    Returns:
        The τ value minimizing Equation 10, with the evaluated candidates.

    Raises:
        ValueError: if no speeds are supplied.
    """
    if len(perpendicular_speeds) == 0:
        raise ValueError("cannot choose tau from an empty partition")
    speeds = np.abs(np.asarray(perpendicular_speeds, dtype=float))
    v_ymax = float(speeds.max())
    if v_ymax == 0.0:
        # Every object already travels exactly along the DVA.
        return TauSearchResult(tau=0.0, objective=0.0, candidates=((0.0, 0.0),))

    # Equal-width cumulative frequency histogram of perpendicular speeds:
    # bucket edge i corresponds to a candidate τ, and the cumulative count up
    # to that edge is n_d(τ) — the number of objects the DVA partition keeps.
    edges = np.linspace(0.0, v_ymax, histogram_buckets + 1)
    counts, _ = np.histogram(speeds, bins=edges)
    cumulative = np.cumsum(counts)

    candidates: List[Tuple[float, float]] = []
    best_tau = v_ymax
    best_objective = float("inf")
    for bucket in range(histogram_buckets):
        tau_candidate = float(edges[bucket + 1])
        n_d = int(cumulative[bucket])
        if n_d == 0:
            continue
        # v_yd(n_d): the largest perpendicular speed actually kept.  Using the
        # bucket's upper edge matches the equal-width histogram approximation
        # described in the paper.
        v_yd = tau_candidate
        objective = expansion_rate_objective(n_d, v_yd, v_ymax)
        candidates.append((tau_candidate, objective))
        if objective < best_objective:
            best_objective = objective
            best_tau = tau_candidate
    if not candidates:
        return TauSearchResult(tau=v_ymax, objective=0.0, candidates=((v_ymax, 0.0),))
    return TauSearchResult(
        tau=best_tau, objective=best_objective, candidates=tuple(candidates)
    )
