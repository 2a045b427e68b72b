import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpers import (
    Connectivity,
    ScalarField,
    UsageError,
    filtration_order,
    local_minima,
    neighbors,
    pair_by_persistence,
    precedes,
    sort_vertices,
)
from dynpers.grid import _build_neighbor_lists, offset_slices

SIGNAL = ScalarField((5,), [5, 1, 4, 0, 6])


def reference_neighbor_lists(shape, connectivity):
    """Per-offset append loop, then a sort of every list."""
    n = int(np.prod(shape))
    lin = np.arange(n).reshape(shape)
    lists = [[] for _ in range(n)]
    for _, src, dst in offset_slices(shape, connectivity):
        for v, u in zip(lin[src].ravel().tolist(), lin[dst].ravel().tolist()):
            lists[v].append(u)
    for l in lists:
        l.sort()
    return lists


class TestScalarField:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(UsageError):
            ScalarField((2,), [1.0, float("nan")])
        with pytest.raises(UsageError):
            ScalarField((2,), [1.0, float("inf")])

    def test_rejects_overflowing_range(self):
        with pytest.raises(UsageError, match="range"):
            ScalarField((2,), [1.7e308, -1.7e308])
        assert ScalarField((2,), [1.7e308, 0.0]).n_vertices == 2

    def test_rejects_length_mismatch(self):
        with pytest.raises(UsageError):
            ScalarField((3,), [1.0, 2.0])

    def test_rejects_bad_shape(self):
        with pytest.raises(UsageError):
            ScalarField((), [])
        with pytest.raises(UsageError):
            ScalarField((0,), [])

    def test_values_immutable(self):
        with pytest.raises(ValueError):
            SIGNAL.values[0] = 9.0

    def test_connectivity_from_string(self):
        f = ScalarField((2, 2), [0, 1, 2, 3], "full")
        assert f.connectivity is Connectivity.FULL


class TestNeighbors:
    def test_1d_boundary(self):
        assert neighbors(SIGNAL, 0) == [1]

    def test_1d_interior(self):
        assert neighbors(SIGNAL, 2) == [1, 3]

    def test_2d_axis_center(self):
        f = ScalarField((3, 3), range(9))
        assert neighbors(f, 4) == [1, 3, 5, 7]

    def test_2d_full_center(self):
        f = ScalarField((3, 3), range(9), "full")
        assert neighbors(f, 4) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            neighbors(SIGNAL, 5)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        conn=st.sampled_from(["axis", "full"]),
    )
    def test_symmetry_and_self_exclusion(self, shape, conn):
        n = int(np.prod(shape))
        f = ScalarField(tuple(shape), np.zeros(n), conn)
        lists = [neighbors(f, v) for v in range(n)]
        for v, nl in enumerate(lists):
            assert v not in nl
            assert len(nl) == len(set(nl))
            for u in nl:
                assert v in lists[u]

    def test_matches_reference_on_every_small_shape(self):
        # every shape with extents 1-7 in 1D-3D and 1-4 in 4D (extent-1
        # axes, two-vertex axes and interiors in every position)
        for ndim, top in ((1, 7), (2, 7), (3, 7), (4, 4)):
            for shape in itertools.product(range(1, top + 1), repeat=ndim):
                for conn in Connectivity:
                    expected = reference_neighbor_lists(shape, conn)
                    assert _build_neighbor_lists(shape, conn) == expected, (shape, conn)

    def test_axis_degree_bound(self):
        f = ScalarField((4, 4, 4), np.zeros(64))
        assert all(len(neighbors(f, v)) <= 6 for v in range(64))


class TestTotalOrder:
    def test_smaller_value_precedes(self):
        f = ScalarField((2,), [2.0, 1.0])
        assert precedes(f, 1, 0)
        assert not precedes(f, 0, 1)

    def test_tie_broken_by_index(self):
        f = ScalarField((2,), [3.0, 3.0])
        assert precedes(f, 0, 1)

    def test_strictness(self):
        with pytest.raises(UsageError):
            precedes(SIGNAL, 2, 2)

    def test_sorted_order(self):
        assert sort_vertices(SIGNAL, range(5)) == [3, 1, 2, 0, 4]
        assert filtration_order(SIGNAL) == [3, 1, 2, 0, 4]

    def test_sort_vertices_matches_tuple_keys(self):
        rng = np.random.default_rng(17)
        for vals in (rng.integers(0, 3, 40), rng.choice([-0.0, 0.0, 1.0], 40), rng.uniform(size=40)):
            f = ScalarField((40,), vals.astype(float))
            picks = rng.integers(0, 40, 25).tolist()  # repeats included
            expected = sorted(picks, key=lambda v: (float(f.values[v]), v))
            assert sort_vertices(f, picks) == expected
            assert sort_vertices(f, iter(picks)) == expected
        with pytest.raises(UsageError):
            sort_vertices(SIGNAL, [0, 5])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_total_on_arbitrary_values(self, vals):
        f = ScalarField((len(vals),), [float(v) for v in vals])
        order = filtration_order(f)
        assert sorted(order) == list(range(len(vals)))
        for a, b in zip(order, order[1:]):
            assert precedes(f, a, b)

    def test_value_dominates_index(self):
        f = ScalarField((3,), [2.0, 1.0, 1.5])
        assert precedes(f, 1, 0) and precedes(f, 2, 0) and precedes(f, 1, 2)


class TestFiltrationOrder:
    def test_signal(self):
        assert filtration_order(SIGNAL) == [3, 1, 2, 0, 4]

    def test_sorted_ramp_identity(self):
        assert filtration_order(ScalarField((3,), [0, 1, 2])) == [0, 1, 2]

    def test_constant_tie_break(self):
        assert filtration_order(ScalarField((3,), [7, 7, 7])) == [0, 1, 2]

    def test_rank_inverts_order(self):
        rng = np.random.default_rng(5)
        for vals in (rng.integers(0, 3, 60), rng.choice([-0.0, 0.0, 1.0], 60), rng.uniform(size=60)):
            f = ScalarField((6, 10), vals.astype(float))
            order, rank = f.total_order()
            assert order.tolist() == filtration_order(f)
            assert filtration_order(f) == sorted(range(60), key=lambda v: (float(f.values[v]), v))
            assert rank[order].tolist() == list(range(60))
            assert all(precedes(f, a, b) == (rank[a] < rank[b])
                       for a in range(60) for b in range(60) if a != b)

    def test_returned_order_is_a_copy(self):
        f = ScalarField((3, 4), [5, 1, 4, 0, 6, 2, 2, 7, 3, 9, 8, 0])
        minima = local_minima(f)
        pairs = pair_by_persistence(f)
        order = filtration_order(f)
        expected = list(order)
        order.reverse()
        order[0] = 99
        assert filtration_order(f) == expected
        assert local_minima(f) == minima and pair_by_persistence(f) == pairs
        with pytest.raises(ValueError):
            f.total_order()[1][0] = 7


class TestLocalMinima:
    def test_signal(self):
        assert local_minima(SIGNAL) == [3, 1]

    def test_single_vertex(self):
        assert local_minima(ScalarField((1,), [7.0])) == [0]

    def test_monotone_ramp(self):
        assert local_minima(ScalarField((4,), [0, 1, 2, 3])) == [0]

    def test_constant_field_tie_break(self):
        # every vertex but the first has a preceding neighbor
        assert local_minima(ScalarField((3,), [7, 7, 7])) == [0]

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(9))))
    def test_matches_no_preceding_neighbor(self, perm):
        f = ScalarField((3, 3), [float(v) for v in perm])
        lists = f.neighbor_lists()
        expected = sorted(
            (
                v
                for v in range(9)
                if not any(precedes(f, u, v) for u in lists[v])
            ),
            key=lambda v: (float(f.values[v]), v),
        )
        assert local_minima(f) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(8))))
    def test_distinct_values_strict_minimality(self, perm):
        f = ScalarField((8,), [float(v) for v in perm])
        vals = f.values
        lists = f.neighbor_lists()
        strict = sorted(
            (v for v in range(8) if all(vals[v] < vals[u] for u in lists[v])),
            key=lambda v: float(vals[v]),
        )
        assert local_minima(f) == strict
