import bisect
import heapq
import itertools
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpers import morphology
from dynpers import (
    Connectivity,
    PersistencePair,
    ScalarField,
    UsageError,
    build_merge_tree,
    dynamics_oracle,
    filter_dynamics,
    filtration_order,
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
from dynpers.grid import _geometry
from fields import GRIDS_4D, tie_heavy_fields

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

    def test_filtered_field_shares_the_input_geometry(self):
        # the geometry holds no values, so segment keeps one copy, not two
        for field in (random_field(4), random_field(5, (3, 4, 5), "full")):
            filtered = filter_dynamics(field, 0.25)
            assert (filtered.shape, filtered.connectivity) == (field.shape, field.connectivity)
            assert _geometry(filtered) is _geometry(field)

    def test_identity_below_all_values(self):
        f = random_field(1)
        assert np.array_equal(filter_dynamics(f, 1e-9).values, f.values)

    def test_collision_rejected_with_value(self):
        with pytest.raises(UsageError, match="3.0"):
            filter_dynamics(SIGNAL, 3.0)

    def test_collision_names_the_least_colliding_minimum(self):
        # minima 2 and 4 both have value 2 and birth 0; the least index is named
        with pytest.raises(UsageError, match="of minimum 2;"):
            filter_dynamics(ScalarField((5,), [0, 2, 0, 2, 0]), 2.0)

    def test_nested_pairs_tied_by_rounding(self):
        # the pairs of minima 0 and 2 both read 1e16 (1 + 1e16 rounds down); the
        # outer saddle 4 comes later in the total order, so it owns {0, ..., 4}
        f = ScalarField((6,), [-1e16, 0, -1e16, -1, 1, -2e16])
        out = filter_dynamics(f, 3e16)
        assert out.values.tolist() == [1, 1, 1, 1, 1, -2e16]
        assert minimal_regions(out) == surviving_minima(f, 3e16) == [5]

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

    def test_markers_from_an_iterator(self):
        assert watershed_from_markers(SIGNAL, iter([1, 3])).labels == (1, 1, 3, 3, 3)
        assert watershed_from_markers(SIGNAL, (m for m in [1, 3])).labels == (1, 1, 3, 3, 3)

    def test_markers_as_numpy_ints(self):
        assert watershed_from_markers(SIGNAL, np.array([1, 3])).labels == (1, 1, 3, 3, 3)
        assert watershed_from_markers(SIGNAL, [np.int32(1), np.int64(3)]).labels == (1, 1, 3, 3, 3)

    def test_bad_markers_named_as_check_vertex_names_them(self):
        for markers, first_bad in (([1, 5, 3], 5), ([3, -1, 9], -1), ([1, 10**30, -2], 10**30)):
            with pytest.raises(UsageError) as caught:
                watershed_from_markers(SIGNAL, markers)
            with pytest.raises(UsageError) as expected:
                SIGNAL.check_vertex(first_bad)
            assert str(caught.value) == str(expected.value)

    def test_filled_plateau_drains_to_survivor(self):
        # after cancellation the raised plateau must flow through its saddle
        filtered = filter_dynamics(SIGNAL, 3.5)
        assert watershed(filtered).labels == (3, 3, 3, 3, 3)


class TestWatershedLabelsArray:
    def test_array_core_and_tuple_view(self):
        flood = ScalarField((4, 3), [2, 2, 1, 1, 2, 1, 2, 1, 1, 0, 1, 2])
        for ws in (watershed(SIGNAL), watershed(GRID33), watershed(random_field(4, conn="full")),
                   watershed_from_markers(flood, [9, 3, 2])):  # the last one floods
            core = ws._labels
            assert core.dtype == np.intp and not core.flags.writeable
            assert ws.labels == tuple(core.tolist()) and ws.labels is ws.labels
            assert all(type(label) is int for label in ws.labels)
            assert type(ws.region_count) is int and ws.region_count == len(set(ws.labels))


class TestDescentBasinCache:
    def test_computed_once_per_field_and_read_only(self, monkeypatch):
        from dynpers import grid

        calls = []  # the keys of every call to the shared descent
        descent = grid._descent
        monkeypatch.setattr(grid, "_descent", lambda key, slices: calls.append(key)
                            or descent(key, slices))
        for run in (lambda f: filter_dynamics(f, 0.05), saliency):
            calls.clear()
            f = random_field(9)
            run(f)
            assert len(calls) == 1
            assert np.array_equal(calls[0].reshape(-1), f.total_order()[1])
        cached = grid._descent_basins(f)
        assert grid._descent_basins(f) is cached and len(calls) == 1
        assert not any(a.flags.writeable for a in cached)


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

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.5, -1.0, 1e16, math.inf]), max_size=30))
    def test_matches_python_sort_in_any_pair_order(self, values):
        # the old curve: Python sort and set, then one bisect per breakpoint;
        # of 0.0 and -0.0 the first in list order stands for both
        pairs = [PersistencePair(i, None if v == math.inf else i + 1, 0.0, None, v)
                 for i, v in enumerate(values)]
        finite = sorted(v for v in values if v != math.inf)
        breakpoints = sorted(set(finite))
        counts = [len(values)] + [len(values) - bisect.bisect_right(finite, b) for b in breakpoints]
        curve = granulometric_curve(pairs)
        assert repr(curve.breakpoints) == repr(tuple(breakpoints))
        assert curve.counts == tuple(counts) and all(type(c) is int for c in curve.counts)


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


def reference_absorption_tree(field, labels):
    """Where each cancelled basin's water goes, and at which threshold.

    Replays the sublevel filtration; at a merge vertex the dying component's
    future water exits over that saddle and follows the saddle's least
    preceding neighbor on the still-separate elder side, so the dying minimum
    is absorbed by that neighbor's watershed basin.  Returns
    ``(parent, weight)`` maps over minima: ``parent[m]`` is the absorbing
    basin and ``weight[m]`` the pair value of ``m``.
    """
    vals = field.values.tolist()
    rank = field.total_order()[1].tolist()
    lab = labels.labels
    nbrs = field.neighbor_lists()
    parent_uf = list(range(field.n_vertices))
    comp_min = [-1] * field.n_vertices
    parent = {}
    weight = {}

    def find(x):
        while parent_uf[x] != x:
            parent_uf[x] = parent_uf[parent_uf[x]]
            x = parent_uf[x]
        return x

    for v in filtration_order(field):
        rv = rank[v]
        r0 = -1
        merges = False
        for u in nbrs[v]:
            if rank[u] < rv:  # u is already in the sublevel set
                r = find(u)
                if r0 < 0:
                    r0 = r
                elif r != r0:
                    merges = True
        if r0 < 0:
            comp_min[v] = v
            continue
        parent_uf[v] = r0
        if not merges:
            continue
        by_root = {}
        for u in nbrs[v]:
            if rank[u] < rv:
                by_root.setdefault(find(u), []).append(u)
        level = vals[v]
        comps = sorted(by_root.items(), key=lambda kv: rank[comp_min[kv[0]]])
        elder_side = list(comps[0][1])
        for root, side in comps[1:]:
            dying = comp_min[root]
            gate = min(elder_side, key=rank.__getitem__)
            parent[dying] = lab[gate]
            weight[dying] = level - vals[dying]
            elder_side.extend(side)
        for root in by_root:
            parent_uf[root] = r0
        comp_min[r0] = comp_min[comps[0][0]]
    return parent, weight


def reference_saliency(field):
    """Edge saliency by walking both basins' absorption chains to their meeting point."""
    labels = watershed(field)
    parent, weight = reference_absorption_tree(field, labels)

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
    for u, v in reference_edges(field):
        a, b = labels.labels[u], labels.labels[v]
        out.append(((u, v), 0.0 if a == b else fuse_level(min(a, b), max(a, b))))
    return tuple(out)


def reference_edges(field):
    """Every edge (u, v), u < v, ascending, from a walk over the neighbor lists."""
    lists = field.neighbor_lists()
    return [(u, v) for u in range(field.n_vertices) for v in lists[u] if v > u]


def nested_comb(n, seed):
    """``v[2i] = -i``, ``v[2i+1] = 0.5 + 0.001 i`` plus jitter below 0.0005 on the
    maxima: every basin nested in the next, so the absorption tree is one chain."""
    vals = np.empty(n)
    vals[0::2] = -np.arange((n + 1) // 2, dtype=float)
    odds = np.arange(n // 2)
    vals[1::2] = 0.5 + 0.001 * odds + np.random.default_rng(seed).uniform(0, 0.0005, odds.size)
    return vals


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

    def test_saliency_matches_chain_walk_on_deep_combs(self):
        # A comb of k minima is a chain k - 1 unions deep.  In the second field
        # the shallow ends of combs of 301 and 601 minima meet at a barrier of
        # 1e3, and a lone minimum of -1e4 lies beyond a barrier of 2e3.  The
        # pair across the first barrier is 300 levels apart and meets 301
        # levels up, one below the root: binary lifting needs more than 8
        # levels in both of its phases.
        left, right = nested_comb(601, 1)[::-1], nested_comb(1201, 2)
        back_to_back = np.concatenate([[-1e4, 2e3], left, [1e3], right])
        for vals in (nested_comb(601, 3)[::-1], back_to_back):
            f = ScalarField((vals.size,), vals)
            assert len(local_minima(f)) > 2**8
            assert repr(saliency(f).edge_values) == repr(reference_saliency(f))

    def test_saliency_without_boundary_edges(self):
        for f in (
            ScalarField((1,), [0.0]),
            ScalarField((1, 1), [2.0], "full"),
            ScalarField((3, 4), np.full(12, -0.0), "full"),
            ScalarField((2, 3, 2), np.full(12, 1.5)),
            ScalarField((4,), [0, 1, 2, 3]),
            ScalarField((3, 3), [4, 3, 2, 5, 1, 0.5, 6, 7, 0]),
        ):
            sal = saliency(f)
            assert repr(sal.edge_values) == repr(reference_saliency(f))
            assert not sal.values.any()
        assert saliency_to_field(saliency(ScalarField((1,), [0.0]))).values.tolist() == [0.0]


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
        for f in tie_heavy_fields(7919):
            assert local_minima(f) == reference_local_minima(f)

    def test_minimal_regions_match_plateau_search(self):
        for f in tie_heavy_fields(7919):
            assert minimal_regions(f) == reference_minimal_regions(f)

    def test_watershed_matches_tuple_heap(self):
        rng = np.random.default_rng(11)
        for f in tie_heavy_fields(7919):
            markers = minimal_regions(f)
            assert watershed_from_markers(f, markers).labels == reference_watershed(f, markers)
            # random markers: duplicates and non-minima included
            markers = rng.integers(0, f.n_vertices, size=int(rng.integers(1, 6))).tolist()
            markers += markers[: int(rng.integers(0, 3))]
            assert watershed_from_markers(f, markers).labels == reference_watershed(f, markers)

    def test_empty_markers_rejected(self):
        with pytest.raises(UsageError, match="markers"):
            watershed_from_markers(GRID33, [])


@pytest.fixture
def floods(monkeypatch):
    """Fields the watershed floods on the heap (only that path reads the filtration order)."""
    seen = []

    def spy(field):
        seen.append(field)
        return filtration_order(field)

    monkeypatch.setattr(morphology, "filtration_order", spy)
    return seen


class TestWatershedFastPath:
    def test_matches_tuple_heap_on_distinct_values(self, floods):
        rng = np.random.default_rng(31)
        for i in range(24):
            shape, conn = GRIDS_4D[i % len(GRIDS_4D)]
            f = ScalarField(shape, rng.uniform(-1.0, 1.0, int(np.prod(shape))), conn)
            minima = local_minima(f)
            # shuffled, with duplicates
            markers = rng.permutation(minima).tolist() + minima[: int(rng.integers(0, 4))]
            assert watershed_from_markers(f, markers).labels == reference_watershed(f, markers)
        assert floods == []

    def test_tie_heavy_fields_take_both_paths(self, floods):
        flooded = []
        for f in tie_heavy_fields(7919):
            before = len(floods)
            watershed(f)
            flooded.append(len(floods) > before)
        assert any(flooded) and not all(flooded)

    def test_other_marker_sets_flood(self, floods):
        f = random_field(4)
        minima = local_minima(f)
        for markers in (minima[1:], minima + [next(v for v in range(f.n_vertices) if v not in minima)]):
            assert watershed_from_markers(f, markers).labels == reference_watershed(f, markers)
        assert len(floods) == 2

    def test_filtered_fields_match_tuple_heap(self):
        cases = 0
        for f in itertools.chain(tie_heavy_fields(7919, 160), uniform_fields()):
            for t in filter_probes(f)[::3][:4]:
                g = filter_dynamics(f, t)
                markers = minimal_regions(g)
                assert watershed(g).labels == reference_watershed(g, markers), (f.values, t)
                cases += 1
        assert cases > 300

    def test_segment_on_distinct_values_never_floods(self, floods):
        for f in uniform_fields():
            for t in filter_probes(f)[::4]:
                segment_pipeline(f, t)
        assert floods == []

    def test_marker_on_the_plateau_floods(self, floods):
        # the plateau {2, 5, 7, 8, 10} holds marker 2 and the unmarked local
        # minimum 7, and leaves through 10 alone: the flood still decides
        f = ScalarField((4, 3), [2, 2, 1, 1, 2, 1, 2, 1, 1, 0, 1, 2])
        labels = watershed_from_markers(f, [9, 3, 2]).labels
        assert labels == (3, 2, 2, 3, 3, 2, 9, 2, 2, 9, 9, 2)
        assert labels == reference_watershed(f, [9, 3, 2]) and len(floods) == 1


class TestHarnessContract:
    def test_saliency_floods_once_through_the_module_global(self, monkeypatch):
        # bench/spans.py reads saliency's watershed_from_markers child span
        calls = []
        original = morphology.watershed_from_markers

        def counted(field, markers, **kwargs):  # bench/spans.py forwards keywords too
            calls.append(field)
            return original(field, markers, **kwargs)

        monkeypatch.setattr(morphology, "watershed_from_markers", counted)
        f = random_field(3)
        saliency(f)
        assert calls == [f]


class TestWatershedSearchesPlateausOnce:
    T = 0.1234567

    def filtered(self):
        for seed in range(6):
            f = filter_dynamics(random_field(seed, (20, 21)), self.T)
            assert len(local_minima(f)) > len(minimal_regions(f))  # unmarked minima
            yield f

    def test_one_search_per_call(self, monkeypatch):
        calls = []
        original = morphology._plateaus

        def counted(field):
            calls.append(field)
            return original(field)

        monkeypatch.setattr(morphology, "_plateaus", counted)
        for f in self.filtered():
            calls.clear()
            labels = watershed(f)
            assert calls == [f]
            calls.clear()
            assert labels.labels == watershed_from_markers(f, minimal_regions(f)).labels
            assert calls == [f, f]  # the public pair searches twice

    def test_segment_bytes_unchanged(self, capsys, monkeypatch):
        import io
        import sys

        from dynpers import cli

        def segment_bytes():
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert cli.main(["segment", "--t", repr(self.T)]) == 0
            return capsys.readouterr().out.encode()

        for seed in range(3):
            f = random_field(seed, (20, 21))
            text = "FIELD 2 20 21\n" + "".join(f"{v!r}\n" for v in f.values.tolist())
            got = segment_bytes()
            with monkeypatch.context() as m:  # the two-search composition
                m.setattr(morphology, "watershed",
                          lambda g: watershed_from_markers(g, minimal_regions(g)))
                assert segment_bytes() == got

def reference_filter(field, t):
    """Per-pair breadth-first filter: pairs in ascending order, each raising the
    component of its minimum below (death, saddle) in the current field state."""
    pairs = [p for p in pair_by_persistence(field) if not p.is_essential]
    vals = field.values.copy()
    nbrs = field.neighbor_lists()
    for p in pairs:  # already ascending by value
        if p.value >= t:
            continue
        death_key = (p.death, p.saddle_vertex)
        component = [p.min_vertex]
        seen = {p.min_vertex}
        q = deque(component)
        while q:
            v = q.popleft()
            for u in nbrs[v]:
                if u not in seen and (float(vals[u]), u) < death_key:
                    seen.add(u)
                    component.append(u)
                    q.append(u)
        vals[component] = p.death
    return vals


def filter_probes(field):
    """Thresholds between, just above and just below every pair value, plus 1e-9
    and 1e9; positive and never equal to a pair value."""
    values = sorted({p.value for p in pair_by_persistence(field) if not p.is_essential})
    probes = [1e-9, 1e9]
    probes += [(a + b) / 2 for a, b in zip(values, values[1:])]
    for v in values:
        probes += [float(np.nextafter(v, np.inf)), float(np.nextafter(v, -np.inf))]
    return [t for t in probes if t > 0 and t not in values]


def uniform_fields():
    """Uniform random fields in 1D, 2D and 3D with axis and full connectivity."""
    for conn in ("axis", "full"):
        for seed, shape in enumerate([(40,), (9, 11), (5, 4, 6)]):
            yield random_field(seed, shape=shape, conn=conn)


class TestFilterAgainstReference:
    def check(self, fields, signed_zeros=False):
        # equal bits, unless signed_zeros and the cancelled pairs die at both zeros
        cases = 0
        for f in fields:
            for t in filter_probes(f):
                out, ref = filter_dynamics(f, t).values, reference_filter(f, t)
                assert np.array_equal(out, ref), (f.values, t)
                if not (signed_zeros and dies_at_both_zeros(f, t)):
                    assert out.tobytes() == ref.tobytes(), (f.values, t)
                cases += 1
        return cases

    def test_tie_heavy_fields(self):
        assert self.check(tie_heavy_fields(7919), signed_zeros=True) > 1000

    def test_level_fields(self):
        assert self.check(level_fields()) > 100

    def test_uniform_fields(self):
        assert self.check(uniform_fields()) > 100



def rule_filter(field, t):
    """The filter's stated rule by brute force: cancelled pairs in ascending total
    order of their saddles, each writing its death on the component of its
    minimum among the vertices that precede its saddle in the input field; the
    last write wins."""
    vals = field.values
    nbrs = field.neighbor_lists()
    out = vals.copy()
    cancelled = [p for p in pair_by_persistence(field) if not p.is_essential and p.value < t]
    for p in sorted(cancelled, key=lambda p: (float(vals[p.saddle_vertex]), p.saddle_vertex)):
        top = (float(vals[p.saddle_vertex]), p.saddle_vertex)
        component = {p.min_vertex}
        stack = [p.min_vertex]
        while stack:
            v = stack.pop()
            for u in nbrs[v]:
                if u not in component and (float(vals[u]), u) < top:
                    component.add(u)
                    stack.append(u)
        out[sorted(component)] = p.death
    return out


def dies_at_both_zeros(field, t):
    """Do the pairs cancelled below t die at both 0.0 and -0.0?"""
    signs = {
        math.copysign(1.0, p.death)
        for p in pair_by_persistence(field)
        if not p.is_essential and p.value < t and p.death == 0
    }
    return len(signs) == 2


def signed_zero_fields(count=160):
    rng = np.random.default_rng(3)
    levels = [[-1.0, -0.0, 0.0, 1.0], [-2.0, -1.0, -0.0, 0.0, 1.0], [-0.0, 0.0, 1.0]]
    grids = [((17,), "axis"), ((5, 6), "axis"), ((5, 6), "full"), ((3, 4, 3), "axis")]
    for i in range(count):
        shape, conn = grids[i % len(grids)]
        vals = rng.choice(levels[i % len(levels)], size=int(np.prod(shape)))
        yield ScalarField(shape, vals, conn)


class TestFilterRule:
    def test_matches_the_stated_rule(self):
        for f in itertools.chain(signed_zero_fields(), tie_heavy_fields(7919, 80), level_fields()):
            for t in filter_probes(f):
                assert filter_dynamics(f, t).values.tobytes() == rule_filter(f, t).tobytes()

    def test_sequential_filter_differs_only_in_the_sign_of_a_raised_zero(self):
        # bit for bit unless the cancelled pairs die at both 0.0 and -0.0
        for f in signed_zero_fields():
            for t in filter_probes(f):
                out, seq = filter_dynamics(f, t).values, reference_filter(f, t)
                assert np.array_equal(out, seq)
                if not dies_at_both_zeros(f, t):
                    assert out.tobytes() == seq.tobytes()

    def test_sign_of_zero_from_the_last_containing_pair(self):
        f = ScalarField(
            (4, 5),
            [-1, 0, 1, 1, 1, -0.0, -1, 1, 1, -1, -1, -1, 1, -1, -0.0, -0.0, -1, 0, -1, 1],
        )
        # the pairs of minima 9 (death 0.0 at 17) and 13 (death -0.0 at 14) tie on
        # value 1.0 and birth -1; the saddle 17 comes last in the total order, and
        # 9's component {9, 13, 14, 18} holds 13's component {13, 18}
        out = filter_dynamics(f, 2.0).values
        assert [math.copysign(1.0, out[v]) for v in (9, 13, 14, 18)] == [1.0] * 4
        # cancelling pair by pair in the current field, 13 comes last and writes
        # -0.0 on itself only: 9 had already raised 18 to 0.0, and its index
        # passes the saddle 14
        ref = reference_filter(f, 2.0)
        assert math.copysign(1.0, ref[13]) == -1.0 and math.copysign(1.0, ref[18]) == 1.0
        assert np.array_equal(out, ref)


class TestSimplificationTheorem:
    @settings(max_examples=150)
    @given(
        shape=st.lists(st.integers(1, 7), min_size=1, max_size=3),
        conn=st.sampled_from(["axis", "full"]),
        levels=st.sampled_from([2, 3, 4, None]),
        data=st.data(),
    )
    def test_filter_keeps_exactly_the_pairs_at_or_above_t(self, shape, conn, levels, data):
        # integer values, so every pair value is exact; None means values in [-20, 20]
        n = int(np.prod(shape))
        ints = st.integers(-20, 20) if levels is None else st.integers(0, levels - 1)
        vals = data.draw(st.lists(ints, min_size=n, max_size=n))
        f = ScalarField(tuple(shape), [float(v) for v in vals], conn)
        finite = [p for p in pair_by_persistence(f) if not p.is_essential]
        cuts = sorted({0.0} | {p.value for p in finite})
        k = data.draw(st.integers(0, len(cuts) - 1))
        t = (cuts[k] + cuts[k + 1]) / 2 if k + 1 < len(cuts) else cuts[-1] + 0.5
        kept = {(p.min_vertex, p.value) for p in finite if p.value >= t}
        # the filter's plateaus leave pairs of value 0, and a kept pair may merge
        # at another vertex of its saddle's value, so the saddle is left out
        after = {
            (p.min_vertex, p.value)
            for p in pair_by_persistence(filter_dynamics(f, t))
            if not p.is_essential and p.value > 0
        }
        assert after == kept


class TestMergeTreeGates:
    def test_gates_are_lower_neighbors_of_their_saddles(self):
        for f in tie_heavy_fields(7919):
            tree = build_merge_tree(f)
            rank = f.total_order()[1]
            assert len(tree.gates) == len(tree.events)
            for ev, gate in zip(tree.events, tree.gates):
                assert gate in f.neighbor_lists()[ev.saddle]
                assert rank[gate] < rank[ev.saddle]

    def test_gates_match_the_absorption_replay(self):
        for f in tie_heavy_fields(7919):
            labels = watershed(f)
            parent, _ = reference_absorption_tree(f, labels)
            tree = build_merge_tree(f)
            assert {ev.dying_min: labels.labels[g] for ev, g in zip(tree.events, tree.gates)} == parent

    def test_four_way_saddle(self):
        # the centre vertex 12 joins four arms; each arm's least vertex is its
        # minimum (2, 10, 14, 22) and its entry point is the centre's neighbor
        vals = np.full(25, 9.0)
        vals[12] = 8.0
        vals[[2, 7]] = [0.0, 6.0]  # up arm, the survivor
        vals[[10, 11]] = [1.0, 5.0]  # left arm
        vals[[14, 13]] = [1.5, 2.0]  # right arm
        vals[[22, 17]] = [4.0, 4.5]  # down arm
        tree = build_merge_tree(ScalarField((5, 5), vals))
        at_centre = [
            (ev.survivor_min, ev.dying_min, gate)
            for ev, gate in zip(tree.events, tree.gates)
            if ev.saddle == 12
        ]
        # 10 sees only the up arm (gate 7); 14 also sees the left arm, whose 11
        # precedes 7; 22 sees the right arm too, whose 13 precedes 11
        assert at_centre == [(2, 22, 13), (2, 14, 11), (2, 10, 7)]


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


class TestSaliencyMemory:
    @pytest.mark.parametrize("side", [64, 120])
    def test_no_all_edge_label_array_is_held_into_the_merge_tree(self, side, monkeypatch):
        # Traced memory when saliency's merge tree starts, in units of one int64 array
        # over every edge: 6.95 here, 10.95 when the labels of every edge (two such
        # arrays) and a sorted copy of the edge list (two more) were still held.
        f = ScalarField((side, side), np.random.default_rng(side).uniform(size=side * side))
        held = []
        build = morphology.build_merge_tree

        def spy(field):
            held.append(tracemalloc.get_traced_memory()[0])
            return build(field)

        monkeypatch.setattr(morphology, "build_merge_tree", spy)
        tracemalloc.start()
        try:
            saliency(f)
        finally:
            tracemalloc.stop()
        edge_array = 8 * 2 * side * (side - 1)
        assert len(held) == 1 and held[0] < 8 * edge_array


class TestEdges:
    def test_iter_edges_axis_1d(self):
        assert list(iter_edges(SIGNAL)) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_iter_edges_match_the_neighbor_walk(self):
        thin = (((1,), "axis"), ((1, 1), "full"), ((1, 5), "axis"), ((3, 1), "full"),
                ((1, 1, 4), "full"), ((2, 1, 3), "full"))
        for shape, conn in GRIDS_4D + thin:
            f = ScalarField(shape, np.zeros(int(np.prod(shape))), conn)
            assert list(iter_edges(f)) == reference_edges(f)

    def test_boundary_edges_match_the_neighbor_walk(self):
        for f in tie_heavy_fields(41, count=40):
            labels = watershed(f)
            lab = labels.labels
            expected = {(u, v) for u, v in reference_edges(f) if lab[u] != lab[v]}
            assert labels.boundary_edges(f) == expected

    def test_edge_walks_build_no_neighbor_lists(self):
        f = random_field(6)  # distinct values: the watershed takes the steepest descent
        list(iter_edges(f))
        watershed(f).boundary_edges(f)
        saliency(f)
        assert f._neighbor_cache is None

    def test_iter_edges_counts(self):
        f = ScalarField((3, 3), range(9))
        assert len(list(iter_edges(f))) == 12
        g = ScalarField((3, 3), range(9), Connectivity.FULL)
        assert len(list(iter_edges(g))) == 20
