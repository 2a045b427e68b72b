import heapq
import itertools
from collections import deque

import numpy as np
import pytest

from dynpers import (
    Connectivity,
    ScalarField,
    UsageError,
    dynamics_oracle,
    filter_dynamics,
    granulometric_curve,
    iter_edges,
    local_minima,
    minimal_regions,
    pair_by_persistence,
    saliency,
    saliency_to_field,
    segment_pipeline,
    watershed,
    watershed_from_markers,
)
from dynpers.morphology import _absorption_tree

SIGNAL = ScalarField((5,), [5, 1, 4, 0, 6])
GRID33 = ScalarField((3, 3), [9, 8, 10, 2, 7, 3, 11, 12, 13])
THREE_MIN = ScalarField((7,), [7, 0, 6, 2, 4, 1, 7])  # pair values {2, 5}


def random_field(seed, shape=(10, 10), conn="axis"):
    rng = np.random.default_rng(seed)
    return ScalarField(shape, rng.uniform(0, 1, int(np.prod(shape))), conn)


def surviving_minima(field, t):
    out = []
    for m in local_minima(field):
        value, _ = dynamics_oracle(field, m)
        if value >= t:
            out.append(m)
    return out


class TestFilterDynamics:
    def test_signal_cancellation(self):
        assert filter_dynamics(SIGNAL, 3.5).values.tolist() == [5, 4, 4, 0, 6]

    def test_signal_below_threshold_unchanged(self):
        assert filter_dynamics(SIGNAL, 2).values.tolist() == [5, 1, 4, 0, 6]

    def test_identity_below_all_values(self):
        f = random_field(1)
        assert np.array_equal(filter_dynamics(f, 1e-9).values, f.values)

    def test_collision_rejected_with_value(self):
        with pytest.raises(UsageError, match="3.0"):
            filter_dynamics(SIGNAL, 3.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(UsageError):
            filter_dynamics(SIGNAL, 0.0)
        with pytest.raises(UsageError):
            filter_dynamics(SIGNAL, -1.0)

    def test_idempotent(self):
        for seed in range(8):
            f = random_field(seed)
            t = 0.3
            once = filter_dynamics(f, t)
            twice = filter_dynamics(once, t)
            assert np.array_equal(once.values, twice.values)

    def test_pointwise_geq(self):
        for seed in range(8):
            f = random_field(seed, conn="full" if seed % 2 else "axis")
            out = filter_dynamics(f, 0.4)
            assert np.all(out.values >= f.values)

    def test_changes_only_inside_cancelled_components(self):
        for seed in range(8):
            f = random_field(seed)
            t = 0.4
            deaths = {p.death for p in pair_by_persistence(f) if not p.is_essential and p.value < t}
            out = filter_dynamics(f, t)
            changed = np.flatnonzero(out.values != f.values)
            # every raised vertex sits at some cancelled pair's death level
            assert all(float(out.values[v]) in deaths for v in changed)

    def test_minima_are_the_surviving_ones(self):
        for seed in range(8):
            f = random_field(seed)
            t = 0.25
            assert minimal_regions(filter_dynamics(f, t)) == surviving_minima(f, t)

    def test_progressive_equals_one_shot(self):
        for seed in range(6):
            f = random_field(seed, shape=(24,))
            values = sorted(p.value for p in pair_by_persistence(f) if not p.is_essential)
            if len(values) < 2:
                continue
            t1 = (values[0] + values[1]) / 2
            t2 = values[-1] + 0.1
            combined = filter_dynamics(filter_dynamics(f, t1), t2)
            direct = filter_dynamics(f, t2)
            assert np.array_equal(combined.values, direct.values)


class TestWatershed:
    def test_signal_labels(self):
        assert watershed(SIGNAL).labels == (1, 1, 3, 3, 3)

    def test_single_minimum_ramp(self):
        assert watershed(ScalarField((4,), [0, 1, 2, 3])).labels == (0, 0, 0, 0)

    def test_3x3_center_joins_deeper_basin(self):
        labels = watershed(GRID33)
        assert labels.labels == (3, 3, 5, 3, 3, 5, 3, 3, 5)
        assert labels.labels[4] == 3  # center follows the value-2 minimum

    def test_minimum_labels_itself_and_region_count(self):
        for seed in range(8):
            f = random_field(seed)
            labels = watershed(f)
            minima = local_minima(f)
            assert labels.region_count == len(minima)
            for m in minima:
                assert labels.labels[m] == m

    def test_markers_must_cover(self):
        with pytest.raises(UsageError):
            watershed_from_markers(SIGNAL, [])

    def test_filled_plateau_drains_to_survivor(self):
        # after cancellation the raised plateau must flow through its saddle
        filtered = filter_dynamics(SIGNAL, 3.5)
        assert watershed(filtered).labels == (3, 3, 3, 3, 3)


class TestGranulometricCurve:
    def test_signal(self):
        curve = granulometric_curve(pair_by_persistence(SIGNAL))
        assert curve.breakpoints == (3.0,)
        assert curve.counts == (2, 1)
        assert curve.value_at(3.0) == 2  # t <= breakpoint keeps both minima
        assert curve.value_at(3.5) == 1

    def test_single_minimum_constant_one(self):
        curve = granulometric_curve(pair_by_persistence(ScalarField((4,), [0, 1, 2, 3])))
        assert curve.breakpoints == ()
        assert curve.counts == (1,)
        assert curve.value_at(99.0) == 1

    def test_three_minima(self):
        curve = granulometric_curve(pair_by_persistence(THREE_MIN))
        assert curve.breakpoints == (2.0, 5.0)
        assert curve.counts == (3, 2, 1)

    def test_counts_nonincreasing_terminate_at_one(self):
        for seed in range(8):
            curve = granulometric_curve(pair_by_persistence(random_field(seed)))
            assert list(curve.counts) == sorted(curve.counts, reverse=True)
            assert curve.counts[-1] == 1
            assert all(a > b for a, b in zip(curve.counts, curve.counts[1:]))

    def test_rejects_nonpositive_threshold(self):
        curve = granulometric_curve(pair_by_persistence(SIGNAL))
        with pytest.raises(UsageError):
            curve.value_at(0.0)


class TestSaliency:
    def test_signal_single_boundary(self):
        sal = saliency(SIGNAL).as_dict()
        assert sal == {(0, 1): 0.0, (1, 2): 3.0, (2, 3): 0.0, (3, 4): 0.0}

    def test_single_minimum_all_zero(self):
        sal = saliency(ScalarField((4,), [0, 1, 2, 3]))
        assert all(v == 0.0 for _, v in sal.edge_values)

    def test_positive_only_on_boundaries(self):
        for seed in range(6):
            f = random_field(seed)
            labels = watershed(f)
            boundary = labels.boundary_edges(f)
            for (u, v), val in saliency(f).edge_values:
                assert (val > 0) == ((u, v) in boundary)

    def test_3x3_boundary_strength(self):
        sal = saliency(GRID33).as_dict()
        assert sal[(1, 2)] == 4.0 and sal[(4, 5)] == 4.0 and sal[(7, 8)] == 4.0
        assert sum(1 for v in sal.values() if v > 0) == 3

    def test_doubled_grid_field(self):
        out = saliency_to_field(saliency(SIGNAL))
        assert out.shape == (9,)
        assert out.values.tolist() == [0, 0, 0, 3, 0, 0, 0, 0, 0]

    def test_doubled_grid_2d_positions(self):
        out = saliency_to_field(saliency(GRID33))
        assert out.shape == (5, 5)
        grid = out.values.reshape(5, 5)
        assert grid[0, 3] == 4.0 and grid[2, 3] == 4.0 and grid[4, 3] == 4.0
        assert grid.sum() == 12.0

    def test_doubled_grid_rejects_full_connectivity(self):
        f = random_field(0, shape=(4, 4), conn="full")
        with pytest.raises(UsageError):
            saliency_to_field(saliency(f))

    def test_json_keys(self):
        obj = saliency(SIGNAL).to_json()
        assert obj["1,2"] == 3.0 and obj["0,1"] == 0.0


def level_fields():
    """Integer fields with 2-4 levels (plateaus everywhere), 1D to 3D full, plus a nested comb."""
    rng = np.random.default_rng(2024)
    cases = [((31,), "axis"), ((9, 11), "axis"), ((9, 11), "full"), ((5, 4, 6), "full")]
    for i in range(48):
        shape, conn = cases[i % len(cases)]
        vals = rng.integers(0, 2 + i % 3, size=int(np.prod(shape)))
        yield ScalarField(shape, vals.astype(float), conn)
    comb = [float(-(i // 2)) if i % 2 == 0 else 0.5 + 0.001 * (i // 2) for i in range(41)]
    yield ScalarField((41,), comb)


def reference_counts(pairs):
    """Curve counts by counting the cancelled pairs at every breakpoint."""
    finite = [p.value for p in pairs if not p.is_essential]
    return tuple([len(pairs)] + [len(pairs) - sum(1 for v in finite if v <= b)
                                 for b in sorted(set(finite))])


def reference_value_at(curve, t):
    k = 0
    while k < len(curve.breakpoints) and curve.breakpoints[k] < t:
        k += 1
    return curve.counts[k]


def reference_saliency(field):
    """Edge saliency by walking both basins' absorption chains to their meeting point."""
    labels = watershed(field)
    parent, weight = _absorption_tree(field, labels)

    def fuse_level(a, b):
        seen = {}
        x, run = a, 0.0
        while True:
            seen[x] = run
            if x not in parent:
                break
            run = max(run, weight[x])
            x = parent[x]
        x, run = b, 0.0
        while x not in seen:
            run = max(run, weight[x])
            x = parent[x]
        return max(run, seen[x])

    out = []
    for u, v in iter_edges(field):
        a, b = labels.labels[u], labels.labels[v]
        out.append(((u, v), 0.0 if a == b else fuse_level(min(a, b), max(a, b))))
    return tuple(out)


class TestAgainstReference:
    def test_granulometric_counts(self):
        for f in level_fields():
            pairs = pair_by_persistence(f)
            curve = granulometric_curve(pairs)
            assert curve.counts == reference_counts(pairs)
            assert curve.breakpoints == tuple(sorted({p.value for p in pairs if not p.is_essential}))

    def test_value_at_matches_linear_scan(self):
        for f in level_fields():
            curve = granulometric_curve(pair_by_persistence(f))
            bps = list(curve.breakpoints)
            probes = bps + [b * 0.5 for b in bps] + [b + 0.25 for b in bps] + [1e-9, 1e9]
            probes += [(a + b) / 2 for a, b in zip(bps, bps[1:])]
            for t in probes:
                if t > 0:
                    assert curve.value_at(t) == reference_value_at(curve, t), t

    def test_saliency_matches_chain_walk(self):
        for f in level_fields():
            assert repr(saliency(f).edge_values) == repr(reference_saliency(f))

    def test_saliency_matches_chain_walk_on_uniform_3d(self):
        for seed in range(4):
            f = random_field(seed, shape=(6, 5, 7), conn="full")
            assert repr(saliency(f).edge_values) == repr(reference_saliency(f))


def tie_heavy_fields(count=320):
    """Integer fields with 2-4 levels, {-0.0, 0.0, 1.0} fields, uniform random and
    constant fields, on 1D, 2D axis, 2D full and 3D full grids."""
    rng = np.random.default_rng(7919)
    grids = [((23,), "axis"), ((7, 9), "axis"), ((7, 9), "full"), ((4, 3, 5), "full")]
    for i in range(count):
        shape, conn = grids[i % len(grids)]
        n = int(np.prod(shape))
        kind = (i // len(grids)) % 4
        if kind == 0:
            vals = rng.integers(0, 2 + (i // 16) % 3, size=n).astype(float)
        elif kind == 1:
            vals = rng.choice([-0.0, 0.0, 1.0], size=n)
        elif kind == 2:
            vals = rng.uniform(-1.0, 1.0, size=n)
        else:
            vals = np.full(n, rng.choice([-0.0, 0.0, 2.5]))
        yield ScalarField(shape, vals, conn)


def reference_local_minima(field):
    """Vertex loop over (value, index) tuple keys."""
    vals = field.values
    lists = field.neighbor_lists()
    out = []
    for v in range(field.n_vertices):
        key = (float(vals[v]), v)
        if all(key < (float(vals[u]), u) for u in lists[v]):
            out.append(v)
    out.sort(key=lambda v: (float(vals[v]), v))
    return out


def reference_minimal_regions(field):
    """Breadth-first search over every plateau."""
    vals = field.values
    nbrs = field.neighbor_lists()
    seen = [False] * field.n_vertices
    reps = []
    for start in range(field.n_vertices):
        if seen[start]:
            continue
        level = float(vals[start])
        plateau = [start]
        seen[start] = True
        is_min = True
        q = deque([start])
        while q:
            v = q.popleft()
            for u in nbrs[v]:
                fu = float(vals[u])
                if fu == level:
                    if not seen[u]:
                        seen[u] = True
                        plateau.append(u)
                        q.append(u)
                elif fu < level:
                    is_min = False
        if is_min:
            reps.append(min(plateau))
    reps.sort(key=lambda v: (float(vals[v]), v))
    return reps


def reference_watershed(field, markers):
    """Flooding from a heap of (value, index) tuples that may hold a vertex twice."""
    vals = field.values
    nbrs = field.neighbor_lists()
    labels = [-1] * field.n_vertices
    heap = []
    for m in markers:
        labels[m] = m
    for m in markers:
        for u in nbrs[m]:
            if labels[u] < 0:
                heapq.heappush(heap, (float(vals[u]), u))
    while heap:
        _, v = heapq.heappop(heap)
        if labels[v] >= 0:
            continue
        best = min((float(vals[u]), u) for u in nbrs[v] if labels[u] >= 0)
        labels[v] = labels[best[1]]
        for u in nbrs[v]:
            if labels[u] < 0:
                heapq.heappush(heap, (float(vals[u]), u))
    return tuple(labels)


class TestOrderKeyedLayers:
    def test_local_minima_matches_tuple_loop(self):
        for f in tie_heavy_fields():
            assert local_minima(f) == reference_local_minima(f)

    def test_minimal_regions_match_plateau_search(self):
        for f in tie_heavy_fields():
            assert minimal_regions(f) == reference_minimal_regions(f)

    def test_watershed_matches_tuple_heap(self):
        rng = np.random.default_rng(11)
        for f in tie_heavy_fields():
            markers = minimal_regions(f)
            assert watershed_from_markers(f, markers).labels == reference_watershed(f, markers)
            # random markers: duplicates and non-minima included
            markers = rng.integers(0, f.n_vertices, size=int(rng.integers(1, 6))).tolist()
            markers += markers[: int(rng.integers(0, 3))]
            assert watershed_from_markers(f, markers).labels == reference_watershed(f, markers)

    def test_empty_markers_rejected(self):
        with pytest.raises(UsageError, match="markers"):
            watershed_from_markers(GRID33, [])


def stack_boundary(field, t):
    """Literal per-threshold segmentation: flood the field from the minima
    that survive the filter at t, then read off the boundary edges."""
    seeds = minimal_regions(filter_dynamics(field, t))
    labels = watershed_from_markers(field, seeds)
    return labels.boundary_edges(field)


def threshold_probes(field):
    values = sorted({p.value for p in pair_by_persistence(field) if not p.is_essential})
    probes = []
    if values:
        probes.append(values[0] / 2)
        probes.extend((a + b) / 2 for a, b in zip(values, values[1:]))
        probes.append(values[-1] + 1.0)
    else:
        probes.append(1.0)
    return probes


class TestStackingConsistency:
    def test_permutations_n5(self):
        for perm in itertools.permutations(range(1, 6)):
            f = ScalarField((5,), [float(v) for v in perm])
            sal = saliency(f)
            for t in threshold_probes(f):
                assert sal.edges_at_least(t) == stack_boundary(f, t)

    def test_random_2d(self):
        for seed in range(5):
            f = random_field(seed, shape=(12, 12))
            sal = saliency(f)
            for t in threshold_probes(f):
                assert sal.edges_at_least(t) == stack_boundary(f, t)

    def test_known_shifting_case(self):
        # literal re-watershed of the filtered field moves the (2,3) boundary;
        # the hierarchy and the marker flood agree on (3,4) instead
        f = ScalarField((6,), [1, 5, 3, 6, 4, 2])
        sal = saliency(f)
        assert sal.edges_at_least(3.0) == {(3, 4)}
        assert stack_boundary(f, 3.0) == {(3, 4)}


class TestSegmentPipeline:
    def test_signal_one_region(self):
        _, labels, _, _ = segment_pipeline(SIGNAL, 3.5)
        assert labels.region_count == 1

    def test_signal_two_regions(self):
        _, labels, _, _ = segment_pipeline(SIGNAL, 2)
        assert labels.region_count == 2

    def test_low_threshold_identity(self):
        f = random_field(3)
        _, labels, _, _ = segment_pipeline(f, 1e-9)
        assert labels.region_count == len(local_minima(f))

    def test_region_count_equals_curve(self):
        for seed in range(6):
            f = random_field(seed)
            curve = granulometric_curve(pair_by_persistence(f))
            for t in threshold_probes(f):
                filtered, labels, _, filtered_curve = segment_pipeline(f, t)
                assert labels.region_count == curve.value_at(t)
                assert labels.region_count == filtered_curve.value_at(t)
                assert labels.region_count == len(surviving_minima(f, t))


class TestEdges:
    def test_iter_edges_axis_1d(self):
        assert list(iter_edges(SIGNAL)) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_iter_edges_counts(self):
        f = ScalarField((3, 3), range(9))
        assert len(list(iter_edges(f))) == 12
        g = ScalarField((3, 3), range(9), Connectivity.FULL)
        assert len(list(iter_edges(g))) == 20
