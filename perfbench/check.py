"""Answer checker: the driver's own picture of where every object is.

The checker never asks the index what it holds.  It keeps an oid → latest
motion table of its own (numpy columns, advanced with each update request)
and recomputes sampled answers from that table by scanning every object:

* range — one vectorized pass keeps the objects whose trajectory box over
  the query interval touches the query's bounding box, then the survivors
  are decided by ``RangeQuery.matches``, the library's exact predicate;
* kNN — predicted positions, ``numpy.hypot`` distances, ``(distance, oid)``
  ranking.

All of it runs between requests, outside the timed interval.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import MovingObject, Point, Vector

#: Requests verified per workload (the sample is seeded; all are verified
#: when a workload has fewer).
RANGE_SAMPLE = 60
KNN_SAMPLE = 24
#: Two float distances computed by different code agree to this.
DISTANCE_TOLERANCE = 1e-6


class Checker:
    """Latest-object table plus the verdicts on sampled answers."""

    def __init__(self, initial_objects, requests, seed: int) -> None:
        n = len(initial_objects)
        self.x = np.empty(n)
        self.y = np.empty(n)
        self.vx = np.empty(n)
        self.vy = np.empty(n)
        self.t = np.empty(n)
        for obj in initial_objects:  # oids are 0..n-1
            self.x[obj.oid] = obj.position.x
            self.y[obj.oid] = obj.position.y
            self.vx[obj.oid] = obj.velocity.vx
            self.vy[obj.oid] = obj.velocity.vy
            self.t[obj.oid] = obj.reference_time
        rng = random.Random(seed + 7919)
        by_kind: Dict[str, List[int]] = {"range": [], "knn": []}
        for position, request in enumerate(requests):
            if request.kind in by_kind:
                by_kind[request.kind].append(position)
        self.sampled = set(
            rng.sample(by_kind["range"], min(RANGE_SAMPLE, len(by_kind["range"])))
            + rng.sample(by_kind["knn"], min(KNN_SAMPLE, len(by_kind["knn"])))
        )
        self.checked = {"range": 0, "knn": 0}
        self.wrong = 0
        self.first_wrong = ""

    # -- the table -----------------------------------------------------
    def apply(self, columns) -> None:
        """Advance the table by one update request's new-snapshot columns."""
        oid, x, y, vx, vy, t = columns
        self.x[oid] = x
        self.y[oid] = y
        self.vx[oid] = vx
        self.vy[oid] = vy
        self.t[oid] = t

    def object(self, oid: int) -> MovingObject:
        """The latest snapshot of ``oid`` as the table has it."""
        return MovingObject(
            oid=int(oid),
            position=Point(float(self.x[oid]), float(self.y[oid])),
            velocity=Vector(float(self.vx[oid]), float(self.vy[oid])),
            reference_time=float(self.t[oid]),
        )

    def _positions_at(self, time: float) -> Tuple[np.ndarray, np.ndarray]:
        elapsed = time - self.t
        return self.x + self.vx * elapsed, self.y + self.vy * elapsed

    # -- expected answers ----------------------------------------------
    def expected_range(self, query) -> List[int]:
        """Ascending ids of every object that qualifies for ``query``."""
        box = query.bounding_rect_over_interval()
        x0, y0 = self._positions_at(query.start_time)
        x1, y1 = self._positions_at(query.end_time)
        slack = 1.0  # metres; the exact predicate decides everything kept
        near = (
            (np.minimum(x0, x1) <= box.x_max + slack)
            & (np.maximum(x0, x1) >= box.x_min - slack)
            & (np.minimum(y0, y1) <= box.y_max + slack)
            & (np.maximum(y0, y1) >= box.y_min - slack)
        )
        return [int(oid) for oid in np.nonzero(near)[0] if query.matches(self.object(oid))]

    def expected_knn(self, probe) -> List[Tuple[int, float]]:
        """The ``k`` nearest ``(oid, distance)`` pairs, ties broken by oid."""
        px, py = self._positions_at(probe.query_time)
        distance = np.hypot(px - probe.center.x, py - probe.center.y)
        k = min(probe.k, len(distance))
        kth = np.partition(distance, k - 1)[k - 1]
        close = np.nonzero(distance <= kth)[0]
        order = np.lexsort((close, distance[close]))[:k]
        return [(int(close[j]), float(distance[close[j]])) for j in order]

    # -- verdicts ------------------------------------------------------
    def _fail(self, what: str) -> None:
        self.wrong += 1
        if not self.first_wrong:
            self.first_wrong = what

    def range_matches(self, query, answer: Sequence[int], what: str) -> bool:
        expected = self.expected_range(query)
        ok = sorted(answer) == expected
        if not ok:
            self._fail(f"{what}: got {len(answer)} ids, the scan finds {len(expected)}")
        return ok

    def knn_matches(self, probe, answer, what: str) -> bool:
        expected = self.expected_knn(probe)
        ok = [oid for oid, _ in answer] == [oid for oid, _ in expected] and all(
            abs(got[1] - want[1]) <= DISTANCE_TOLERANCE for got, want in zip(answer, expected)
        )
        if not ok:
            self._fail(f"{what}: ranking differs from the scan")
        return ok

    def verify(self, position: int, request, answer) -> None:
        """Check one request's answer if it is in the seeded sample."""
        if position not in self.sampled:
            return
        self.checked[request.kind] += 1
        if request.kind == "range":
            self.range_matches(request.payload, answer[0], f"range request {position}")
        else:
            for probe, ranked in zip(request.payload, answer):
                if not self.knn_matches(probe, ranked, f"kNN request {position}"):
                    break

    def visible(self, index, obj: MovingObject, clock: float, space) -> bool:
        """Whether ``index`` holds exactly this snapshot of the object.

        A 1-NN probe at the object's own predicted position finds it at
        distance 0 only if the index has this position, velocity and
        reference time; an older snapshot sits somewhere else by then.
        ``clock`` is the latest event time the index has seen — a probe
        issued before it could lose candidates.
        """
        when = clock + 30.0
        answer = index.knn_query(obj.position_at(when), 1, when, issue_time=clock, space=space)
        return bool(answer) and answer[0][0] == obj.oid and answer[0][1] <= DISTANCE_TOLERANCE
