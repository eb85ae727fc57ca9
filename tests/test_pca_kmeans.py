"""Tests for PCA and the DVA-finding clustering algorithms (Section 5.1)."""

import math
import random

import numpy as np
import pytest

from repro.core.dva import DominantVelocityAxis
from repro.core.outlier import optimal_tau
from repro.core.pc_kmeans import (
    MAX_ITERATIONS,
    PCKMeansResult,
    centroid_kmeans_dvas,
    find_dvas,
    pca_only_dva,
)
from repro.core.pca import first_principal_component, principal_components
from repro.core.velocity_analyzer import VelocityAnalyzer
from repro.geometry.vector import Vector
from repro.workload.generator import DATASETS, build_workload
from repro.workload.parameters import WorkloadParameters


def axis_sample(angles_degrees, points_per_axis=200, noise=2.0, speed=60.0, seed=0):
    """Velocity points concentrated along the given axes (both directions)."""
    rng = random.Random(seed)
    velocities = []
    for angle_deg in angles_degrees:
        angle = math.radians(angle_deg)
        direction = Vector(math.cos(angle), math.sin(angle))
        normal = direction.perpendicular()
        for _ in range(points_per_axis):
            magnitude = rng.uniform(-speed, speed)
            wobble = rng.gauss(0.0, noise)
            velocities.append(
                Vector(
                    direction.vx * magnitude + normal.vx * wobble,
                    direction.vy * magnitude + normal.vy * wobble,
                )
            )
    return velocities


def as_array(velocities):
    """The ``(n, 2)`` array of velocity points the PCA functions take."""
    return np.array([[v.vx, v.vy] for v in velocities], dtype=float)


def members_of(velocities, assignments, k):
    """The velocity points of each of ``k`` partitions, in input order."""
    groups = [[] for _ in range(k)]
    for velocity, assignment in zip(velocities, assignments):
        groups[assignment].append(velocity)
    return groups


def angle_of(axis: Vector) -> float:
    return math.degrees(axis.angle) % 180.0


def angular_difference(a: float, b: float) -> float:
    diff = abs(a - b) % 180.0
    return min(diff, 180.0 - diff)


class TestPCA:
    def test_requires_data(self):
        with pytest.raises(ValueError):
            principal_components(np.empty((0, 2)))

    def test_components_are_orthonormal(self):
        velocities = axis_sample([30.0])
        components = principal_components(as_array(velocities))
        (v1, _), (v2, _) = components
        assert v1.magnitude == pytest.approx(1.0)
        assert v2.magnitude == pytest.approx(1.0)
        assert abs(v1.dot(v2)) < 1e-9

    def test_first_component_finds_single_axis(self):
        velocities = axis_sample([40.0], noise=1.0)
        axis = first_principal_component(as_array(velocities))
        assert angular_difference(angle_of(axis), 40.0) < 3.0

    def test_variances_sorted_descending(self):
        velocities = axis_sample([10.0])
        components = principal_components(as_array(velocities))
        assert components[0][1] >= components[1][1]

    def test_explained_variance_near_one_for_1d_data(self):
        velocities = axis_sample([75.0], noise=0.5)
        variances = [variance for _, variance in principal_components(as_array(velocities))]
        assert variances[0] / sum(variances) > 0.95

    def test_degenerate_input_falls_back_to_x_axis(self):
        axis = first_principal_component(np.zeros((2, 2)))
        assert axis == Vector(1.0, 0.0)

    def test_centered_pca_differs_for_shifted_data(self):
        # A cluster far from the origin: centered PCA sees its internal spread,
        # uncentered PCA sees mostly the offset direction.
        rng = random.Random(1)
        velocities = [Vector(50.0 + rng.gauss(0, 1), rng.gauss(0, 10)) for _ in range(500)]
        uncentered = first_principal_component(as_array(velocities), center=False)
        centered = first_principal_component(as_array(velocities), center=True)
        assert angular_difference(angle_of(uncentered), 0.0) < 10.0
        assert angular_difference(angle_of(centered), 90.0) < 10.0


class TestFindDVAs:
    def test_recovers_two_orthogonal_axes(self):
        velocities = axis_sample([0.0, 90.0], seed=2)
        result = find_dvas(velocities, k=2)
        found = sorted(angle_of(axis) for axis in result.axes)
        assert angular_difference(found[0], 0.0) < 5.0
        assert angular_difference(found[1], 90.0) < 5.0

    def test_recovers_rotated_axes(self):
        velocities = axis_sample([27.0, 117.0], seed=3)
        result = find_dvas(velocities, k=2)
        found = sorted(angle_of(axis) for axis in result.axes)
        assert angular_difference(found[0], 27.0) < 6.0
        assert angular_difference(found[1], 117.0) < 6.0

    def test_assignments_cover_all_points(self):
        velocities = axis_sample([0.0, 90.0], seed=4)
        result = find_dvas(velocities, k=2)
        assert len(result.assignments) == len(velocities)
        assert set(result.assignments) == {0, 1}

    def test_partition_members_counts(self):
        velocities = axis_sample([0.0, 90.0], points_per_axis=100, seed=5)
        result = find_dvas(velocities, k=2)
        groups = members_of(velocities, result.assignments, 2)
        assert sum(len(g) for g in groups) == len(velocities)
        # Roughly balanced between the two axes.
        assert min(len(g) for g in groups) > 50

    def test_k_must_be_valid(self):
        with pytest.raises(ValueError):
            find_dvas([Vector(1, 0)], k=0)
        with pytest.raises(ValueError):
            find_dvas([Vector(1, 0)], k=2)

    def test_single_axis_with_k1(self):
        velocities = axis_sample([60.0], seed=6)
        result = find_dvas(velocities, k=1)
        assert angular_difference(angle_of(result.axes[0]), 60.0) < 4.0

    def test_deterministic_given_seed(self):
        velocities = axis_sample([0.0, 90.0], seed=7)
        a = find_dvas(velocities, k=2, seed=123)
        b = find_dvas(velocities, k=2, seed=123)
        assert a.assignments == b.assignments


class TestNaiveBaselines:
    def test_pca_only_averages_two_axes(self):
        """Naive approach I: with two DVAs the single PC matches neither axis
        (Figure 10a) — it lands roughly between them.  Non-orthogonal axes are
        used because for two equally strong perpendicular axes the scatter
        matrix is isotropic and the PC direction is arbitrary."""
        velocities = axis_sample([0.0, 60.0], seed=8)
        result = pca_only_dva(velocities)
        angle = angle_of(result.axes[0])
        assert angular_difference(angle, 0.0) > 15.0
        assert angular_difference(angle, 60.0) > 15.0

    def test_centroid_kmeans_worse_than_pc_kmeans(self):
        """Naive approach II groups by closeness to a centroid, so its axes fit
        the data strictly worse (in perpendicular distance) than Algorithm 2."""
        velocities = axis_sample([0.0, 90.0], seed=9)

        def mean_perpendicular(result):
            return sum(
                v.perpendicular_distance_to_axis(result.axes[a])
                for v, a in zip(velocities, result.assignments)
            ) / len(velocities)

        ours = mean_perpendicular(find_dvas(velocities, k=2))
        naive = mean_perpendicular(centroid_kmeans_dvas(velocities, k=2))
        assert ours < naive

    def test_centroid_kmeans_requires_enough_points(self):
        with pytest.raises(ValueError):
            centroid_kmeans_dvas([Vector(1, 0)], k=2)


# ----------------------------------------------------------------------
# Algorithm 2 over velocity columns against the per-point loop
# ----------------------------------------------------------------------
def scalar_find_dvas(velocities, k, seed=0):
    """The reference model: Algorithm 2 one velocity point at a time.

    Returns the result and how many times an emptied partition was
    re-seeded.
    """
    rng = random.Random(seed)
    assignments = [rng.randrange(k) for _ in velocities]
    for partition in range(k):
        if partition not in assignments:
            assignments[rng.randrange(len(assignments))] = partition
    axes = scalar_axes_of(velocities, assignments, k)
    iterations = reseeds = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        moved = False
        new_assignments = []
        for velocity, current in zip(velocities, assignments):
            best = min(range(k), key=lambda p: velocity.perpendicular_distance_to_axis(axes[p]))
            new_assignments.append(best)
            if best != current:
                moved = True
        assignments = new_assignments
        for partition in range(k):
            if partition not in assignments:
                farthest = max(
                    range(len(velocities)),
                    key=lambda i: velocities[i].perpendicular_distance_to_axis(
                        axes[assignments[i]]
                    ),
                )
                assignments[farthest] = partition
                moved = True
                reseeds += 1
        axes = scalar_axes_of(velocities, assignments, k)
        if not moved:
            break
    return PCKMeansResult(axes=axes, assignments=assignments, iterations=iterations), reseeds


def scalar_axes_of(velocities, assignments, k):
    axes = []
    for partition in range(k):
        members = [v for v, a in zip(velocities, assignments) if a == partition]
        axes.append(first_principal_component(as_array(members)) if members else Vector(1.0, 0.0))
    return axes


def scalar_analyze(velocities, clustering):
    """The reference model of ``VelocityAnalyzer.analyze`` after the clustering."""
    dvas = []
    groups = members_of(velocities, clustering.assignments, len(clustering.axes))
    for axis, members in zip(clustering.axes, groups):
        if not members:
            dvas.append(DominantVelocityAxis(axis=axis, tau=0.0))
            continue
        speeds = [v.perpendicular_distance_to_axis(axis) for v in members]
        tau = optimal_tau(speeds).tau
        kept = [v for v, speed in zip(members, speeds) if speed <= tau]
        dvas.append(
            DominantVelocityAxis(
                axis=first_principal_component(as_array(kept)) if kept else axis, tau=tau
            )
        )
    return dvas


def bits(vectors):
    return [(v.vx.hex(), v.vy.hex()) for v in vectors]


def assert_columns_equal_the_loop(velocities, k):
    """``find_dvas`` and ``analyze`` reproduce the model bit for bit; the model's reseeds."""
    expected, reseeds = scalar_find_dvas(velocities, k)
    result = find_dvas(velocities, k)
    assert bits(result.axes) == bits(expected.axes)
    assert result.assignments == expected.assignments
    assert result.iterations == expected.iterations
    analyzed = VelocityAnalyzer(k=k).analyze(velocities).dvas
    modelled = scalar_analyze(velocities, expected)
    assert [(bits([d.axis]), d.tau.hex()) for d in analyzed] == [
        (bits([d.axis]), d.tau.hex()) for d in modelled
    ]
    return reseeds


@pytest.fixture(scope="module", params=DATASETS)
def dataset_sample(request):
    params = WorkloadParameters(num_objects=2_000, time_duration=1.0, num_queries=0)
    return build_workload(request.param, params, include_queries=False).velocity_sample()


@pytest.mark.parametrize("k", (1, 2, 3))
def test_algorithm_2_over_columns_equals_the_point_loop(dataset_sample, k):
    """Axes, assignments, iteration counts and every DVA's ``(axis, tau)`` are exact."""
    assert len(dataset_sample) == 2_000
    assert_columns_equal_the_loop(dataset_sample, k)


@pytest.mark.parametrize("k", (2, 3))
def test_an_emptied_partition_is_reseeded_as_the_point_loop_does(k):
    """On one axis every distance ties, so all points pick axis 0 and the rest empty.

    Each iteration then re-seeds the empty partitions with the first of the
    equally far points, as ``max`` picks it, until the iteration bound.
    """
    rng = random.Random(k)
    velocities = [Vector(rng.uniform(-30.0, 30.0), 0.0) for _ in range(300)]
    assert assert_columns_equal_the_loop(velocities, k) > 0
