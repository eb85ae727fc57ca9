"""A simple undirected road-network graph.

Objects in the network workload travel along edges; the network therefore
only needs node coordinates, adjacency, edge lengths and a way to pick
routes.  Routes are random walks: the benchmark generator needs "keep
driving somewhere plausible" rather than true shortest routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.geometry.point import Point
from repro.geometry.vector import Vector


@dataclass(frozen=True)
class RoadEdge:
    """An undirected edge between two nodes."""

    source: int
    target: int
    length: float

    def other(self, node: int) -> int:
        if node == self.source:
            return self.target
        if node == self.target:
            return self.source
        raise ValueError(f"node {node} is not an endpoint of this edge")


class RoadNetwork:
    """An undirected graph embedded in the plane."""

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._nodes: Dict[int, Point] = {}
        self._adjacency: Dict[int, List[RoadEdge]] = {}
        self._edges: List[RoadEdge] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, position: Point) -> None:
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already exists")
        self._nodes[node_id] = position
        self._adjacency[node_id] = []

    def add_edge(self, source: int, target: int) -> RoadEdge:
        """Add an undirected edge; its length is the Euclidean node distance."""
        if source == target:
            raise ValueError("self loops are not allowed")
        if source not in self._nodes or target not in self._nodes:
            raise KeyError("both endpoints must exist before adding an edge")
        length = self._nodes[source].distance_to(self._nodes[target])
        edge = RoadEdge(source=source, target=target, length=length)
        self._adjacency[source].append(edge)
        self._adjacency[target].append(edge)
        self._edges.append(edge)
        return edge

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def node_ids(self) -> List[int]:
        return list(self._nodes.keys())

    @property
    def edges(self) -> List[RoadEdge]:
        return list(self._edges)

    def position(self, node_id: int) -> Point:
        return self._nodes[node_id]

    def neighbors(self, node_id: int) -> List[int]:
        return [edge.other(node_id) for edge in self._adjacency[node_id]]

    def edges_of(self, node_id: int) -> List[RoadEdge]:
        return list(self._adjacency[node_id])

    def average_edge_length(self) -> float:
        if not self._edges:
            return 0.0
        return sum(e.length for e in self._edges) / len(self._edges)

    def edge_direction(self, source: int, target: int) -> Vector:
        """Unit vector pointing from ``source`` to ``target``."""
        src = self._nodes[source]
        dst = self._nodes[target]
        direction = Vector(dst.x - src.x, dst.y - src.y)
        return direction.normalized()

    def point_along(self, source: int, target: int, fraction: float) -> Point:
        """Point a fraction of the way along the edge from ``source`` to ``target``."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        src = self._nodes[source]
        dst = self._nodes[target]
        return Point(
            src.x + (dst.x - src.x) * fraction,
            src.y + (dst.y - src.y) * fraction,
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def random_node(self, rng: random.Random) -> int:
        return rng.choice(self.node_ids)

    def random_edge(self, rng: random.Random) -> RoadEdge:
        return rng.choice(self._edges)

    def next_node_random_walk(
        self, current: int, came_from: Optional[int], rng: random.Random
    ) -> int:
        """Next node of a drive-forward random walk (avoids U-turns when possible)."""
        options = self.neighbors(current)
        if not options:
            raise ValueError(f"node {current} has no neighbors")
        forward = [n for n in options if n != came_from]
        return rng.choice(forward if forward else options)

    def iter_edge_directions(self) -> Iterator[Vector]:
        """Unit direction of every edge (used to characterize network skew)."""
        for edge in self._edges:
            yield self.edge_direction(edge.source, edge.target)
