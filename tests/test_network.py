"""Tests for the road-network graph and the synthetic network generators."""

import math
import random

import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.network.generators import (
    NETWORK_BUILDERS,
    chicago_like,
    grid_network,
    network_for,
    new_york_like,
)
from repro.network.road_network import RoadNetwork


def tiny_network() -> RoadNetwork:
    """A 2x2 grid with unit spacing."""
    network = RoadNetwork("tiny")
    positions = {0: Point(0, 0), 1: Point(1, 0), 2: Point(0, 1), 3: Point(1, 1)}
    for node_id, position in positions.items():
        network.add_node(node_id, position)
    network.add_edge(0, 1)
    network.add_edge(0, 2)
    network.add_edge(1, 3)
    network.add_edge(2, 3)
    return network


class TestRoadNetwork:
    def test_counts(self):
        network = tiny_network()
        assert network.num_nodes == 4
        assert network.num_edges == 4

    def test_duplicate_node_rejected(self):
        network = tiny_network()
        with pytest.raises(ValueError):
            network.add_node(0, Point(5, 5))

    def test_edge_requires_existing_endpoints(self):
        network = tiny_network()
        with pytest.raises(KeyError):
            network.add_edge(0, 99)
        with pytest.raises(ValueError):
            network.add_edge(1, 1)

    def test_edge_length_is_euclidean(self):
        network = tiny_network()
        edge = network.edges_of(0)[0]
        assert edge.length == pytest.approx(1.0)

    def test_neighbors(self):
        network = tiny_network()
        assert sorted(network.neighbors(0)) == [1, 2]

    def test_edge_direction_is_unit(self):
        network = tiny_network()
        direction = network.edge_direction(0, 3)
        assert direction.magnitude == pytest.approx(1.0)

    def test_point_along(self):
        network = tiny_network()
        midpoint = network.point_along(0, 1, 0.5)
        assert midpoint == Point(0.5, 0.0)
        with pytest.raises(ValueError):
            network.point_along(0, 1, 1.5)

    def test_random_walk_avoids_u_turn(self):
        network = tiny_network()
        rng = random.Random(0)
        for _ in range(20):
            next_node = network.next_node_random_walk(1, came_from=0, rng=rng)
            assert next_node == 3  # the only non-U-turn option

    def test_edge_other_endpoint(self):
        network = tiny_network()
        edge = network.edges_of(0)[0]
        assert edge.other(edge.source) == edge.target
        with pytest.raises(ValueError):
            edge.other(99)


class TestGenerators:
    def test_grid_network_dimensions(self):
        network = grid_network("test", rows=5, cols=4, irregular_fraction=0.0)
        assert network.num_nodes == 20
        # 4 rows x 3 horizontal edges + 5 cols ... : (rows*(cols-1) + cols*(rows-1))
        assert network.num_edges == 5 * 3 + 4 * 4

    def test_grid_requires_at_least_2x2(self):
        with pytest.raises(ValueError):
            grid_network("bad", rows=1, cols=5)

    def test_irregular_fraction_adds_edges(self):
        base = grid_network("a", rows=6, cols=6, irregular_fraction=0.0)
        noisy = grid_network("b", rows=6, cols=6, irregular_fraction=0.3, seed=1)
        assert noisy.num_edges > base.num_edges

    def test_nodes_stay_inside_space(self):
        space = Rect(0.0, 0.0, 10_000.0, 10_000.0)
        network = grid_network("rot", rows=8, cols=8, space=space, rotation_degrees=30.0)
        for node_id in network.node_ids:
            assert space.contains_point(network.position(node_id))

    def test_rotation_changes_edge_directions(self):
        straight = grid_network("s", rows=5, cols=5, rotation_degrees=0.0, jitter=0.0)
        rotated = grid_network("r", rows=5, cols=5, rotation_degrees=30.0, jitter=0.0)

        def dominant_angle(network):
            angles = [math.degrees(d.angle) % 180.0 for d in network.iter_edge_directions()]
            return min(angles)

        assert dominant_angle(straight) == pytest.approx(0.0, abs=1.0)
        assert dominant_angle(rotated) == pytest.approx(30.0, abs=2.0)

    def test_named_networks_have_documented_ordering(self):
        """NY must be the densest network (most nodes, shortest edges) and CH
        the sparsest, per Section 6 of the paper."""
        ch = chicago_like()
        ny = new_york_like()
        assert ny.num_nodes > ch.num_nodes
        assert ny.average_edge_length() < ch.average_edge_length()

    def test_network_for_lookup(self):
        for name in NETWORK_BUILDERS:
            network = network_for(name)
            assert network.name == name
            assert network.num_nodes > 0
        assert network_for("ch").name == "CH"
        with pytest.raises(ValueError):
            network_for("atlantis")

    def test_skew_ordering_of_networks(self):
        """CH's edge directions concentrate around its own two dominant axes
        more tightly than NY's (the paper: CH most skewed, NY least)."""

        def off_axis_fraction(network):
            angles = [math.degrees(d.angle) % 90.0 for d in network.iter_edge_directions()]
            # The grid orientation is the most common (rounded) folded angle:
            # perpendicular street families fold onto the same value mod 90.
            from collections import Counter

            dominant = Counter(round(a) % 90 for a in angles).most_common(1)[0][0]

            def distance(angle):
                diff = abs(angle - dominant) % 90.0
                return min(diff, 90.0 - diff)

            return sum(1 for a in angles if distance(a) > 10.0) / len(angles)

        assert off_axis_fraction(chicago_like()) < off_axis_fraction(new_york_like())
