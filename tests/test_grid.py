import io
import itertools
import sys

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
    pair_by_dynamics,
    pair_by_persistence,
    precedes,
    saliency,
    sort_vertices,
    watershed,
)
from dynpers import build_merge_tree, cli, grid, morphology, pairing, pathdyn
from dynpers.grid import (
    _box_minima,
    _build_neighbor_lists,
    _candidate_edges,
    _cut_edges,
    _descent,
    _descent_basins,
    _geometry,
    _kruskal,
    _offset_slices,
    _replay,
    _vertex_order,
    neighbor_table,
    offset_slices,
)
from dynpers.morphology import _fuse_levels, _reconstruction_tree
from dynpers.pairing import _dynamics_columns
from dynpers.pathdyn import oracle_columns
from fields import GRIDS_4D, tie_heavy_fields

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


def reference_cut_edges(key, label, slices):
    """The cut edges by one strided slicing per positive offset, as they were
    built before the grid's flat edge list; ``key`` and ``label`` in the
    grid's shape."""
    zero = (0,) * key.ndim
    a, b, weight = ([np.empty(0, dtype=np.intp)] for _ in range(3))
    for off, src, dst in slices:
        if off > zero:
            ls, ld = label[src], label[dst]
            cut = ls != ld
            ks, kd = key[src][cut], key[dst][cut]
            a.append(ls[cut])
            b.append(ld[cut])
            weight.append(np.maximum(ks, kd) * key.size + np.minimum(ks, kd))
    return np.concatenate(a), np.concatenate(b), np.concatenate(weight)


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


class TestExtentOneAxes:
    def test_no_offset_moves_along_an_extent_one_axis(self):
        for conn in Connectivity:
            assert offset_slices((1,) * 8, conn) == []  # 3**8 - 1 offsets if they did
            offsets = [off for off, _, _ in offset_slices((1, 5, 1, 4), conn)]
            assert offsets and all(off[0] == off[2] == 0 for off in offsets)
            squeezed = [off for off, _, _ in offset_slices((5, 4), conn)]
            assert [(off[1], off[3]) for off in offsets] == squeezed

    @pytest.mark.parametrize("shape", [(1, 5, 1, 4), (5, 1, 4), (1, 1, 5, 4, 1)])
    def test_results_match_the_squeezed_grid(self, shape):
        rng = np.random.default_rng(11)
        for conn in ("axis", "full"):
            assert np.array_equal(neighbor_table(shape, Connectivity(conn)),
                                  neighbor_table((5, 4), Connectivity(conn)))
            for _ in range(5):
                values = rng.integers(0, 4, 20).astype(float)
                f, g = ScalarField(shape, values, conn), ScalarField((5, 4), values, conn)
                assert repr(pair_by_persistence(f)) == repr(pair_by_persistence(g))
                assert repr(pair_by_dynamics(f)) == repr(pair_by_dynamics(g))
                assert watershed(f).labels == watershed(g).labels
                sf, sg = saliency(f), saliency(g)
                for column in ("heads", "tails", "values"):
                    assert np.array_equal(getattr(sf, column), getattr(sg, column))
                assert f.neighbor_lists() == g.neighbor_lists()


class TestGridHelpersAgainstReferences:
    def value_arrays(self):
        for f in tie_heavy_fields(7001, 320, GRIDS_4D):
            yield f.values
        rng = np.random.default_rng(7001)
        for n in (1, 2, 17, 300, 5000, 40000):
            yield rng.choice([-0.0, 0.0, 1.0], n)
            yield rng.choice([-1e16, 1e16, -1.0, 1.0, -0.0, 0.0], n) + rng.choice([0.0, 1.0], n)
            yield rng.integers(0, 3, n).astype(float)
            yield rng.uniform(-1.0, 1.0, n)
            yield np.full(n, rng.choice([-0.0, 0.0, 2.5]))

    def test_vertex_order_is_the_stable_argsort_and_the_lexsort(self):
        for values in self.value_arrays():
            order = _vertex_order(values)
            assert np.array_equal(order, np.argsort(values, kind="stable"))
            assert np.array_equal(order, np.lexsort((np.arange(values.size), values)))

    @pytest.mark.parametrize("shape", [(23,), (1,), (7, 9), (1, 5, 1, 4), (5, 1, 4), (4, 3, 5),
                                       (3, 4, 2, 3), (1, 1, 5, 4, 1)])
    def test_cut_edges_are_the_per_offset_slicing(self, shape):
        rng = np.random.default_rng(7013)
        n = int(np.prod(shape))
        for conn in ("axis", "full"):
            f = ScalarField(shape, rng.integers(0, 3, n).astype(float), conn)
            slices, edges = _geometry(f)
            rank = f.total_order()[1]
            for label in (_descent_basins(f)[1], rng.integers(0, 3, n), np.arange(n)):
                for key in (rank, rng.permutation(n)):
                    got = _cut_edges(key, label, edges)
                    expected = reference_cut_edges(key.reshape(shape), label.reshape(shape), slices)
                    got, expected = ([c[np.argsort(w)] for c in (a, b, w)]  # weights are unique
                                     for a, b, w in (got, expected))
                    for column, reference in zip(got, expected):
                        assert column.dtype == np.intp
                        assert np.array_equal(column, reference)
            heads, tails = edges  # every edge once, as the neighbor table has it
            table = neighbor_table(shape, Connectivity(conn))
            assert np.all(heads < tails) and heads.size == np.count_nonzero(table >= 0) // 2
            assert set(zip(heads.tolist(), tails.tolist())) == {
                (v, u) for v, row in enumerate(table.tolist()) for u in row if u > v}


class TestGeometryCache:
    def test_built_once_per_field_and_read_only(self, capsys, monkeypatch):
        builds = []  # the shape of every offset-slice build
        build = grid.offset_slices
        monkeypatch.setattr(grid, "offset_slices", lambda shape, conn: builds.append(shape)
                            or build(shape, conn))
        fields = []
        init = ScalarField.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            fields.append(self)

        monkeypatch.setattr(ScalarField, "__init__", spy)
        values = np.random.default_rng(3).integers(0, 4, 120).tolist()
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            "FIELD 3 5 4 6\n" + "".join(f"{v}\n" for v in values)))
        assert cli.main(["--connectivity", "full", "pairs", "--method", "both"]) == 0
        assert cli.main(["verify", "--trials", "2", "--shape", "9x11"]) == 0
        capsys.readouterr()
        assert builds == [g.shape for g in fields] and len(fields) == 3
        for g in fields:
            slices, edges = _geometry(g)
            assert _geometry(g) is g._geometry_cache and isinstance(slices, tuple)
            assert not any(column.flags.writeable for column in edges)
        assert len(builds) == 3


    def test_box_grid_requests_leave_the_flat_edge_slot_empty(self, capsys, monkeypatch):
        # full connectivity thins the forests' edges from the box minima, so
        # neither pairing route nor the oracle needs every edge
        fields = []
        init = ScalarField.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            fields.append(self)

        monkeypatch.setattr(ScalarField, "__init__", spy)
        values = np.random.default_rng(5).uniform(0.0, 1.0, 120).tolist()
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            "FIELD 3 5 4 6\n" + "".join(f"{v!r}\n" for v in values)))
        assert cli.main(["--connectivity", "full", "pairs", "--method", "both"]) == 0
        assert cli.main(["--connectivity", "full", "verify", "--trials", "2", "--shape", "5x4x6"]) == 0
        capsys.readouterr()
        assert len(fields) == 3 and sum(g._oracle_cache is not None for g in fields) == 2
        assert all(g._geometry_cache[1] is None for g in fields)
        _geometry(fields[0])  # a caller that needs every edge still gets them
        assert fields[0]._geometry_cache[1] is not None


def brute_box_minima(padded, t):
    """Per position ``p`` of the padded key array, the least entry over the
    positions ``w`` inside it with ``|w - p| <= 1`` and ``|w - p - t| <= 1``
    on every axis, by enumeration."""
    out = np.empty_like(padded)
    for p in np.ndindex(padded.shape):
        ranges = [range(max(0, c - 1, c + d - 1), min(e, c + 2, c + d + 2))
                  for c, d, e in zip(p, t, padded.shape)]
        out[p] = min(padded[w] for w in itertools.product(*ranges))
    return out


class TestBoxMinima:
    """The one stencil behind the box-grid descent, the thinned Kruskal edges
    and the flood's rows, against enumeration."""

    SHAPES = ((1,), (2,), (7,), (1, 5), (2, 2), (2, 7), (4, 6), (3, 1, 4), (2, 3, 2),
              (1, 2, 3, 1), (2, 1, 2, 3), (3, 2, 2, 3))

    def test_equals_brute_force_box_minima(self):
        rng = np.random.default_rng(7039)
        for shape in self.SHAPES:
            n = int(np.prod(shape))
            offsets = list(itertools.product(*[(-1, 0, 1) if e > 1 else (0,) for e in shape]))
            for key in (rng.permutation(n), rng.integers(0, n, n)):  # ties too
                keys, low, inner = _box_minima(key.reshape(shape), offsets)
                assert keys.dtype == np.min_scalar_type(n)
                assert keys.shape == tuple(e + 2 * (e > 1) for e in shape)
                assert np.array_equal(keys[inner].reshape(-1), key)
                outside = np.ones(keys.shape, dtype=bool)
                outside[inner] = False
                assert np.all(keys[outside] == n)
                for t in offsets:
                    assert low[t].dtype == keys.dtype
                    assert np.array_equal(low[t], brute_box_minima(keys, t)), (shape, t)

    def test_least_key_is_the_closed_neighbourhood_minimum(self):
        rng = np.random.default_rng(7043)
        for shape in self.SHAPES:
            n = int(np.prod(shape))
            for conn in Connectivity:
                slices = offset_slices(shape, conn)
                table = neighbor_table(shape, conn)
                key = rng.permutation(n)
                expected = [min([key[v]] + [key[u] for u in row if u >= 0])
                            for v, row in enumerate(table.tolist())]
                got = grid._least_key(key.reshape(shape), slices)
                assert got.dtype == key.dtype and got.tolist() == expected

    def test_candidate_edges_are_the_box_least_edges(self):
        rng = np.random.default_rng(7057)
        for shape in self.SHAPES:
            n = int(np.prod(shape))
            for conn in ("axis", "full"):
                f = ScalarField(shape, rng.uniform(0.0, 1.0, n), conn)
                key = rng.permutation(n)
                heads, tails = _candidate_edges(f, key)
                assert heads.dtype == tails.dtype == np.intp
                every = set(zip(*(column.tolist() for column in _geometry(f)[1])))
                if not grid._is_box(shape, _offset_slices(f)):
                    assert set(zip(heads.tolist(), tails.tolist())) == every
                    continue
                closed = [set(row[row >= 0].tolist()) | {v}
                          for v, row in enumerate(neighbor_table(shape, Connectivity.FULL))]
                expected = {(a, b) for a, b in every
                            if min(key[a], key[b]) == min(key[w] for w in closed[a] & closed[b])}
                got = list(zip(heads.tolist(), tails.tolist()))
                assert len(got) == len(set(got)) and set(got) == expected

    def test_thinned_kruskal_is_the_full_edge_lists(self):
        # for the merge tree's ranks and for the oracle's own keys
        fields = [f for f in tie_heavy_fields(7069, 240, GRIDS_4D)
                  if f.connectivity is Connectivity.FULL]
        assert len(fields) == 120
        thinned = 0
        for f in fields:
            order, rank = f.total_order()
            minima, basin, _ = _descent_basins(f)
            verts = _vertex_order(f.values)
            key = np.empty(f.n_vertices, dtype=np.intp)
            key[verts] = np.arange(f.n_vertices)
            _, is_min, tree = _descent(key.reshape(f.shape), _offset_slices(f))
            for k, o, label, count in ((rank, order, basin, minima.size),
                                      (key, verts, tree, int(is_min.sum()))):
                edges = _candidate_edges(f, k)
                thinned += edges[0].size < _geometry(f)[1][0].size
                got = _kruskal(k, o, label, edges, count)
                expected = _kruskal(k, o, label, _geometry(f)[1], count)
                for column, reference in zip(got, expected):
                    assert column.dtype == reference.dtype
                    assert np.array_equal(column, reference)
        assert thinned == 2 * len(fields)


def reference_elder_rule(a: list, b: list, k: int) -> np.ndarray:
    """The path oracle's own union-find before the shared replay, kept
    verbatim: per edge, the greater of the two roots it joins."""
    parent = list(range(k))
    dying = []
    for x, y in zip(a, b):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x > y:
            x, y = y, x
        parent[y] = x
        dying.append(y)
    return np.array(dying, dtype=np.intp)


def reference_reconstruction_tree(child, parent, leaves):
    """Saliency's Kruskal reconstruction tree with its own union-find over
    the tree's nodes, as it was built before the shared replay: per node,
    its parent."""
    up = list(range(2 * leaves - 1))
    top = up[:]
    node = leaves
    for x, y in zip(child.tolist(), parent.tolist()):
        while top[x] != x:
            top[x] = x = top[top[x]]
        while top[y] != y:
            top[y] = y = top[top[y]]
        up[x] = up[y] = top[x] = top[y] = node
        node += 1
    return np.array(up[:node], dtype=np.intp)


def path_maximum(a, b, weight, lo, hi, k):
    """The heaviest weight on the tree path from ``lo`` to ``hi``, by a walk."""
    adjacent = [[] for _ in range(k)]
    for x, y, w in zip(a.tolist(), b.tolist(), weight.tolist()):
        adjacent[x].append((y, w))
        adjacent[y].append((x, w))
    heaviest = {lo: -np.inf}
    stack = [lo]
    while stack:
        x = stack.pop()
        for y, w in adjacent[x]:
            if y not in heaviest:
                heaviest[y] = max(heaviest[x], w)
                stack.append(y)
    return heaviest[hi]


def random_forests():
    """``(a, b, k, spanning)``: forests over ``k`` nodes as edge lists in a
    random order with random ends first, random trees with and without
    dropped edges, chains, stars and no edges at all."""
    rng = np.random.default_rng(2020)
    for k in (1, 2, 50, 2000):
        for drop in (0.0, 0.0, 0.3):
            ids = rng.permutation(k)
            a, b = ids[1:], ids[rng.integers(0, np.arange(1, k))] if k > 1 else ids[:0]
            keep = np.flatnonzero(rng.random(k - 1) >= drop)
            a, b = a[keep], b[keep]
            swap = rng.random(a.size) < 0.5
            a, b = np.where(swap, b, a), np.where(swap, a, b)
            pick = rng.permutation(a.size)
            yield a[pick], b[pick], k, drop == 0.0
        line = np.arange(k)
        yield line[:-1], line[1:], k, True  # a chain, from one end
        yield line[1:][::-1], line[:-1][::-1], k, True  # from the other
        yield np.full(k - 1, k // 2), np.delete(line, k // 2), k, True  # a star
        yield line[:0], line[:0], k, k == 1  # no edges


class TestSharedReplay:
    def test_the_greater_root_is_the_elder_rule(self):
        for a, b, k, _ in random_forests():
            ra, rb = _replay(a, b, k)
            assert ra.dtype == rb.dtype == np.intp and np.all(ra != rb)
            expected = reference_elder_rule(a.tolist(), b.tolist(), k)
            assert np.array_equal(np.maximum(ra, rb), expected)

    def test_reconstruction_tree_is_the_union_find_loop(self):
        rng = np.random.default_rng(2021)
        for a, b, k, spanning in random_forests():
            assert np.array_equal(_reconstruction_tree(a, b, k), reference_reconstruction_tree(a, b, k))
            if spanning and k > 1:  # every leaf pair is joined
                weight = np.sort(rng.integers(0, 5, a.size)).astype(float)  # ties included
                lo, hi = rng.integers(0, k, (2, 16))
                lo, hi = lo[lo != hi], hi[lo != hi]
                expected = [path_maximum(a, b, weight, x, y, k) for x, y in zip(lo, hi)]
                assert _fuse_levels(a, b, weight, lo, hi, k).tolist() == expected

    def test_every_forest_replays_once(self, monkeypatch):
        calls = []

        def spy(a, b, k):
            calls.append(k)
            return _replay(a, b, k)

        for module in (grid, pairing, pathdyn, morphology):
            if hasattr(module, "_replay"):
                monkeypatch.setattr(module, "_replay", spy)
        fuse = lambda f: _fuse_levels(  # noqa: E731
            np.array([1, 2]), np.array([0, 0]), np.array([0.5, 1.0]), np.array([1]), np.array([2]), 3)
        counts = []
        for run in (build_merge_tree, oracle_columns, fuse, _dynamics_columns):
            calls.clear()
            run(ScalarField((9, 11), np.random.default_rng(5).integers(0, 4, 99).astype(float)))
            counts.append(len(calls))
        assert counts == [1, 1, 1, 0]
