import collections
import io
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpers import (
    MergeEvent,
    PersistencePair,
    ScalarField,
    UsageError,
    build_merge_tree,
    filter_dynamics,
    filtration_order,
    granulometric_curve,
    local_minima,
    pair_1d_algorithm1,
    pair_by_dynamics,
    pair_by_persistence,
    pairing_signature,
    pairs_to_json,
    persistence_diagram,
    saliency,
)
from dynpers import cli, grid, morphology, pairing
from dynpers.equivalence import GeneratorSpec, generate
from dynpers.pairing import _dynamics_columns, _lower_rows, _persistence_columns, _sorted_pairs
from fields import GRIDS_4D, tie_heavy_fields

SIGNAL = ScalarField((5,), [5, 1, 4, 0, 6])
GRID33 = ScalarField((3, 3), [9, 8, 10, 2, 7, 3, 11, 12, 13])
TWO_PAIR = ScalarField((7,), [7, 0, 6, 2, 4, 1, 7])


def perm_fields(n, shape=None):
    for perm in itertools.permutations(range(1, n + 1)):
        yield ScalarField(shape or (n,), [float(v) for v in perm])


class TestMergeTree:
    def test_signal_single_event(self):
        tree = build_merge_tree(SIGNAL)
        assert tree.minima == (3, 1)
        (ev,) = tree.events
        assert (ev.saddle, ev.survivor_min, ev.dying_min, ev.level) == (2, 3, 1, 4.0)

    def test_3x3_center_merge(self):
        tree = build_merge_tree(GRID33)
        (ev,) = tree.events
        assert ev.saddle == 4  # center vertex
        assert GRID33.values[ev.survivor_min] == 2
        assert GRID33.values[ev.dying_min] == 3
        assert ev.level == 7.0

    def test_ramp_has_no_events(self):
        tree = build_merge_tree(ScalarField((5,), [0, 1, 2, 3, 4]))
        assert tree.events == ()
        assert tree.minima == (0,)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=1, max_size=24))
    def test_event_count_and_elder_rule(self, vals):
        f = ScalarField((len(vals),), vals)
        tree = build_merge_tree(f)
        assert len(tree.events) == len(tree.minima) - 1
        assert list(tree.minima) == local_minima(f)
        for ev in tree.events:
            ks = (float(f.values[ev.survivor_min]), ev.survivor_min)
            kd = (float(f.values[ev.dying_min]), ev.dying_min)
            assert ks < kd
            # both minima enter the filtration before their merge vertex
            assert kd < (ev.level, ev.saddle) and ks < (ev.level, ev.saddle)

    def test_levels_nondecreasing_strict_across_saddles(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = ScalarField((6, 6), rng.uniform(0, 1, 36))
            tree = build_merge_tree(f)
            keys = [(ev.level, ev.saddle) for ev in tree.events]
            assert keys == sorted(keys)
            # distinct saddles appear in strictly increasing order
            seen = []
            for k in keys:
                if not seen or seen[-1] != k:
                    assert not seen or seen[-1] < k
                    seen.append(k)


class TestPairByPersistence:
    def test_signal(self):
        pairs = pair_by_persistence(SIGNAL)
        assert len(pairs) == 2
        finite, essential = pairs
        assert (finite.min_vertex, finite.saddle_vertex) == (1, 2)
        assert (finite.birth, finite.death, finite.value) == (1.0, 4.0, 3.0)
        assert essential.min_vertex == 3
        assert essential.value == math.inf and essential.saddle_vertex is None

    def test_3x3(self):
        pairs = pair_by_persistence(GRID33)
        finite, essential = pairs
        assert GRID33.values[finite.min_vertex] == 3
        assert finite.value == 4.0
        assert GRID33.values[essential.min_vertex] == 2

    def test_single_minimum_ramp(self):
        pairs = pair_by_persistence(ScalarField((4,), [0, 1, 2, 3]))
        assert len(pairs) == 1
        assert pairs[0].min_vertex == 0 and pairs[0].value == math.inf

    def test_sorted_by_value_essential_last(self):
        pairs = pair_by_persistence(TWO_PAIR)
        values = [p.value for p in pairs]
        assert values == [2.0, 5.0, math.inf]


class TestPairByDynamics:
    def test_signal(self):
        pairs = pair_by_dynamics(SIGNAL)
        finite, essential = pairs
        assert (finite.min_vertex, finite.saddle_vertex, finite.value) == (1, 2, 3.0)
        assert (essential.min_vertex, essential.value) == (3, math.inf)

    def test_3x3(self):
        pairs = pair_by_dynamics(GRID33)
        finite, essential = pairs
        assert GRID33.values[finite.min_vertex] == 3
        assert finite.saddle_vertex == 4 and finite.value == 4.0
        assert essential.value == math.inf

    def test_single_minimum(self):
        pairs = pair_by_dynamics(ScalarField((1,), [3.0]))
        assert len(pairs) == 1 and pairs[0].value == math.inf


class TestPairingIdentity:
    def test_all_permutations_up_to_5(self):
        for n in range(1, 6):
            for f in perm_fields(n):
                assert pairing_signature(pair_by_persistence(f)) == pairing_signature(
                    pair_by_dynamics(f)
                )

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False, width=32), min_size=1, max_size=30))
    def test_random_1d_with_ties(self, vals):
        f = ScalarField((len(vals),), vals)
        assert pairing_signature(pair_by_persistence(f)) == pairing_signature(
            pair_by_dynamics(f)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["axis", "full"]),
    )
    def test_random_2d_both_connectivities(self, seed, conn):
        rng = np.random.default_rng(seed)
        f = ScalarField((8, 8), rng.uniform(0, 1, 64), conn)
        per = pair_by_persistence(f)
        dyn = pair_by_dynamics(f)
        assert pairing_signature(per) == pairing_signature(dyn)
        # value identity, bit-equal
        for p in per:
            if not p.is_essential:
                assert p.value == float(f.values[p.saddle_vertex]) - float(
                    f.values[p.min_vertex]
                )

    def test_one_infinite_pair_at_global_minimum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = ScalarField((20,), rng.integers(0, 6, 20).astype(float))
            pairs = pair_by_persistence(f)
            essentials = [p for p in pairs if p.is_essential]
            assert len(essentials) == 1
            m0 = min(range(20), key=lambda v: (float(f.values[v]), v))
            assert essentials[0].min_vertex == m0
            assert len(pairs) == len(local_minima(f))


class TestPair1DAlgorithm1:
    def test_signal_interior_max(self):
        assert pair_1d_algorithm1(SIGNAL, 2) == 1

    def test_boundary_descent_left(self):
        f = ScalarField((3,), [0, 3, 1])
        assert pair_1d_algorithm1(f, 1) == 2

    def test_boundary_maxima_pair_nothing(self):
        f = ScalarField((3,), [1, 0, 1])
        assert pair_1d_algorithm1(f, 0) is None
        assert pair_1d_algorithm1(f, 2) is None

    def test_rejects_non_maximum(self):
        with pytest.raises(UsageError):
            pair_1d_algorithm1(SIGNAL, 1)

    def test_rejects_2d_field(self):
        with pytest.raises(UsageError):
            pair_1d_algorithm1(GRID33, 4)

    def test_matches_general_pairing_on_interior_saddles(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            f = ScalarField((32,), rng.uniform(0, 1, 32))
            for p in pair_by_persistence(f):
                if p.is_essential:
                    continue
                s = p.saddle_vertex
                if 0 < s < f.n_vertices - 1:
                    assert pair_1d_algorithm1(f, s) == p.min_vertex


class TestDiagramAndJson:
    def test_signal_diagram(self):
        assert persistence_diagram(pair_by_persistence(SIGNAL)) == [(1.0, 4.0)]

    def test_ramp_empty(self):
        assert persistence_diagram(pair_by_persistence(ScalarField((4,), [0, 1, 2, 3]))) == []

    def test_two_pair_signal_above_diagonal(self):
        points = persistence_diagram(pair_by_persistence(TWO_PAIR))
        assert points == [(2.0, 4.0), (1.0, 6.0)]
        assert all(d > b for b, d in points)

    def test_essential_sentinel(self):
        points = persistence_diagram(pair_by_persistence(SIGNAL), essential_death=6.0)
        assert points == [(1.0, 4.0), (0.0, 6.0)]

    def test_wire_format(self):
        objs = pairs_to_json(pair_by_persistence(SIGNAL))
        assert objs == [
            {"min_index": 1, "birth": 1.0, "saddle_index": 2, "death": 4.0, "value": 3.0},
            {"min_index": 3, "birth": 0.0, "value": "inf"},
        ]


class TestMergeArity:
    def replay(self, field):
        tree = build_merge_tree(field)
        parent = {m: m for m in tree.minima}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ev in tree.events:
            a, b = find(ev.survivor_min), find(ev.dying_min)
            assert a != b, "event must join two distinct components"
            parent[b] = a
        assert len({find(m) for m in tree.minima}) == 1

    def test_replay_1d_and_2d(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            self.replay(ScalarField((30,), rng.uniform(0, 1, 30)))
            self.replay(ScalarField((6, 6), rng.integers(0, 9, 36).astype(float)))
            self.replay(ScalarField((6, 6), rng.uniform(0, 1, 36), "full"))

    def test_1d_axis_saddles_unique(self):
        # a 1D merge vertex joins exactly two runs, so one event per saddle
        for f in perm_fields(6):
            tree = build_merge_tree(f)
            saddles = [ev.saddle for ev in tree.events]
            assert len(saddles) == len(set(saddles))


def reference_merge_tree(field):
    """The per-vertex union-find sweep of the sublevel filtration, as
    ``(events, minima, gates)`` with each event a ``(saddle, survivor_min,
    dying_min, level)`` tuple."""
    vals = field.values.tolist()
    rank = field.total_order()[1].tolist()
    nbrs = field.neighbor_lists()

    parent = list(range(field.n_vertices))
    comp_min = [-1] * field.n_vertices  # root -> minimum vertex of the component
    events = []
    gates = []
    minima = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
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
            minima.append(v)
            continue
        parent[v] = r0
        if not merges:
            continue
        least = {}  # root -> its least lower neighbor of v
        for u in nbrs[v]:
            if rank[u] < rv:
                r = find(u)
                if r not in least or rank[u] < rank[least[r]]:
                    least[r] = u
        roots = sorted(least, key=lambda r: rank[comp_min[r]])
        survivor = comp_min[roots[0]]
        level = vals[v]
        gate = least[roots[0]]
        joins = []  # (dying minimum, gate), eldest dying first
        for r in roots[1:]:
            joins.append((comp_min[r], gate))
            if rank[least[r]] < rank[gate]:
                gate = least[r]
        for dying, g in reversed(joins):
            events.append((v, survivor, dying, level))
            gates.append(g)
        for r in roots:
            parent[r] = r0
        comp_min[r0] = survivor
    return tuple(events), tuple(minima), tuple(gates)


def reference_pairs(field, events, minima):
    """The pair list of the reference sweep's events, built and sorted by
    Python objects: finite pairs by ``(value, birth, minimum)``, essential last."""
    vals = field.values.tolist()
    finite = [
        PersistencePair(dying, saddle, vals[dying], level, level - vals[dying])
        for saddle, _, dying, level in events
    ]
    finite.sort(key=lambda p: (p.value, p.birth, p.min_vertex))
    m0 = minima[0]
    return finite + [PersistencePair(m0, None, vals[m0], None, math.inf)]


def rounding_fields(count=120):
    """Mixtures of +-1e16, +-1 and 0, where pair values round, on 1D-4D grids."""
    rng = np.random.default_rng(1009)
    for i in range(count):
        shape, conn = GRIDS_4D[i % len(GRIDS_4D)]
        vals = rng.choice([-1e16, 1e16, -1.0, 1.0, 0.0, -0.0], size=int(np.prod(shape)))
        yield ScalarField(shape, vals, conn)


class TestMergeTreeAgainstSweep:
    def check(self, field):
        tree = build_merge_tree(field)
        events, minima, gates = reference_merge_tree(field)
        # repr keeps the sign of a zero level
        assert repr(tree.events) == repr(tuple(MergeEvent(*ev) for ev in events))
        assert tree.minima == minima
        assert tree.gates == gates
        ints = tree.saddles + tree.survivor_mins + tree.dying_mins + tree.gates + tree.minima
        assert all(type(m) is int for m in ints)
        assert all(type(level) is float for level in tree.levels)
        for name in ("saddles", "survivor_mins", "dying_mins", "levels", "gates", "minima"):
            column = getattr(tree, "_" + name)
            assert column.dtype == (np.float64 if name == "levels" else np.intp), name
            assert not column.flags.writeable, name
            assert getattr(tree, name) == tuple(column.tolist()), name
        # both routes return the list the sweep's events gave before the
        # pairs became columns; repr keeps the sign of zero values
        expected = repr(reference_pairs(field, events, minima))
        assert repr(pair_by_persistence(field)) == expected
        assert repr(pair_by_dynamics(field)) == expected

    def test_tie_heavy_fields_1d_to_4d(self):
        for f in tie_heavy_fields(6007, 480, GRIDS_4D):
            self.check(f)

    def test_rounding_mixtures(self):
        for f in rounding_fields():
            self.check(f)

    def test_dense_fields(self):
        rng = np.random.default_rng(31)
        for shape, conn in (((40, 40), "axis"), ((9, 8, 7), "full"), ((5, 4, 6, 3), "axis")):
            self.check(ScalarField(shape, rng.uniform(size=int(np.prod(shape))), conn))

    def test_nested_comb(self):
        # 2,001 minima on 4,001 vertices, each basin nested in the next: one
        # chain of deaths 2,000 deep, read from either end
        k = 2001
        vals = np.empty(2 * k - 1)
        vals[0::2] = -np.arange(k)
        jitter = np.random.default_rng(4001).uniform(0.0, 0.0005, k - 1)
        vals[1::2] = 0.5 + 0.001 * np.arange(k - 1) + jitter
        for v in (vals, vals[::-1]):
            self.check(ScalarField(v.shape, v))

    def test_multiway_saddles_4d_full(self):
        # small-integer 3x3x3x3 fields: the 16 corners are low, the centre sees
        # all of them, and edge midpoints tied with it may join some corners first
        rng = np.random.default_rng(81)
        coords = np.indices((3, 3, 3, 3)).reshape(4, -1)
        ones = (coords == 1).sum(axis=0)
        widest = []
        for _ in range(12):
            vals = rng.integers(3, 5, 81).astype(float)
            vals[ones == 0] = rng.integers(0, 2, 16)
            vals[ones == 1] = rng.integers(2, 5, 32)
            vals[40] = 2.0  # the centre
            f = ScalarField((3, 3, 3, 3), vals, "full")
            self.check(f)
            widest.append(max(collections.Counter(build_merge_tree(f).saddles).values()))
        assert min(widest) >= 3  # every field has a saddle joining four or more components

    @settings(max_examples=150)
    @given(
        st.sampled_from([(17,), (5, 6), (3, 4, 3), (2, 3, 2, 3)]),
        st.sampled_from(["axis", "full"]),
        st.integers(1, 6),
        st.data(),
    )
    def test_small_integer_fields(self, shape, conn, levels, data):
        n = int(np.prod(shape))
        vals = data.draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))
        self.check(ScalarField(shape, np.array(vals, dtype=float), conn))


class TestPersistenceRouteBuildsNoNeighborLists:
    def fresh(self):
        rng = np.random.default_rng(5)
        return ScalarField((9, 11), rng.integers(0, 4, 99).astype(float))

    def test_persistence_consumers(self):
        for run in (
            build_merge_tree,
            pair_by_persistence,
            lambda f: filter_dynamics(f, 1.5),
            lambda f: granulometric_curve(pair_by_persistence(f)),
        ):
            f = self.fresh()
            run(f)
            assert f._neighbor_cache is None

    def test_merge_tree_consumers_build_no_neighbor_table(self, monkeypatch):
        # the tree reads the grid through offset slices and the descent basins
        def forbidden(*args, **kwargs):
            raise AssertionError("the merge tree built the neighbor table")

        monkeypatch.setattr(grid, "neighbor_table", forbidden)
        for module in (grid, pairing, morphology):  # morphology has no such name; keep it so
            monkeypatch.setattr(module, "_neighbor_table", forbidden, raising=False)
        for run in (build_merge_tree, _persistence_columns, lambda f: filter_dynamics(f, 1.5)):
            run(self.fresh())
        # nor does saliency's edge map, where its watershed needs no queue flood
        saliency(ScalarField((9, 11), np.random.default_rng(5).uniform(0.0, 1.0, 99)))

    def test_dynamics_route_and_verify_build_none_either(self, capsys, monkeypatch):
        # the flood walks lower-neighbor rows and the oracle the offset slices
        f = self.fresh()
        pair_by_dynamics(f)
        assert f._neighbor_cache is None

        fields = []
        init = ScalarField.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            fields.append(self)

        monkeypatch.setattr(ScalarField, "__init__", spy)
        text = "FIELD 2 9 11\n" + "".join(f"{v!r}\n" for v in f.values.tolist())
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["pairs", "--method", "both"]) == 0
        for prefix, shape in ((["--connectivity", "axis"], "9x11"),
                              (["--connectivity", "full"], "5x4x6")):
            assert cli.main(prefix + ["verify", "--trials", "2", "--shape", shape]) == 0
        capsys.readouterr()
        assert len(fields) == 5
        assert all(g._neighbor_cache is None for g in fields)
        assert sum(g._oracle_cache is not None for g in fields) == 4  # the oracle ran


def reference_dynamics_columns(field):
    """The neighbor-list flood that walked vertices in filtration order, kept
    verbatim as the reference for the rank-space flood."""
    vals = field.values.tolist()
    rank = field.total_order()[1].tolist()
    nbrs = field.neighbor_lists()

    lake_of = [-1] * field.n_vertices
    lake_min: list = []  # lake id -> its minimum vertex
    lake_members: list = []  # lake id -> member vertices
    mins, saddles, births, deaths, values = [], [], [], [], []  # finite pairs

    for v in filtration_order(field):
        lid = -1
        meets = False
        for u in nbrs[v]:
            other = lake_of[u]
            if other >= 0:
                if lid < 0:
                    lid = other
                elif other != lid:
                    meets = True
        if lid < 0:
            lake_of[v] = len(lake_min)
            lake_min.append(v)
            lake_members.append([v])
            continue
        if meets:
            ids = {lake_of[u] for u in nbrs[v]}
            ids.discard(-1)
            level = vals[v]
            by_age = sorted(ids, key=lambda lid: rank[lake_min[lid]])
            elder = by_age[0]
            for lid in reversed(by_age[1:]):
                m = lake_min[lid]
                birth = vals[m]
                mins.append(m)
                saddles.append(v)
                births.append(birth)
                deaths.append(level)
                values.append(level - birth)
            keep = max(ids, key=lambda lid: (len(lake_members[lid]), -lid))
            for lid in ids:
                if lid != keep:
                    for u in lake_members[lid]:
                        lake_of[u] = keep
                    lake_members[keep].extend(lake_members[lid])
                    lake_members[lid] = []
            lake_min[keep] = lake_min[elder]
            lid = keep
        lake_of[v] = lid
        lake_members[lid].append(v)

    essential = None
    alive = set(lake_of)
    if alive:
        m0 = lake_min[alive.pop()]
        essential = (m0, vals[m0])
    ints = [np.array(c, dtype=np.intp) for c in (mins, saddles)]
    floats = [np.array(c, dtype=np.float64) for c in (births, deaths, values)]
    return _sorted_pairs(*ints, *floats, essential)


class TestFloodAgainstReference:
    """The rank-space flood gives the neighbor-list flood's columns bit for bit."""

    def check(self, field):
        got, ref = _dynamics_columns(field), reference_dynamics_columns(field)
        for name in ("mins", "saddles", "births", "deaths", "values"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name  # -0.0 included
        assert repr(got.essential) == repr(ref.essential)
        assert type(got.essential[0]) is int and type(got.essential[1]) is float

    def test_tie_heavy_fields_1d_to_4d(self):
        for f in tie_heavy_fields(2203, 480, GRIDS_4D):
            self.check(f)

    def test_verify_oracle_shapes(self):
        shapes = [((s, s), "axis") for s in (32, 44, 64)]
        shapes += [((s,) * 3, "full") for s in (12, 14, 16)]
        for seed, (shape, conn) in enumerate(shapes):
            self.check(generate(GeneratorSpec("uniform_random", shape, seed, connectivity=conn)))

    def test_extent_one_axes_and_one_vertex(self):
        for f in extent_one_fields(41):
            self.check(f)

    def test_uniform_full_fields(self):
        for seed, shape in enumerate(((64, 64), (5, 5, 5, 5))):
            self.check(generate(GeneratorSpec("uniform_random", shape, seed, connectivity="full")))

    def test_three_and_four_way_merges(self):
        # nine plus-shaped blocks apart from each other: each centre is the
        # first vertex to reach the lakes of its three or four low arms, so
        # rows with more than two lakes take the generic merge
        rng = np.random.default_rng(59)
        for arms in (3, 4):
            for _ in range(4):
                vals = np.full((12, 12), 10.0)
                for i, j in itertools.product((2, 6, 10), repeat=2):
                    vals[i, j] = 5.0 + rng.uniform()
                    ends = [(i - 1, j), (i, j - 1), (i, j + 1), (i + 1, j)]
                    for k in rng.permutation(4)[:arms]:
                        vals[ends[k]] = rng.uniform()
                f = ScalarField((12, 12), vals)
                self.check(f)
                widths = collections.Counter(build_merge_tree(f).saddles)
                assert list(widths.values()).count(arms - 1) == 9


def extent_one_fields(seed):
    """Fields on grids with axes of extent 1, under both connectivities, and
    one-vertex fields."""
    rng = np.random.default_rng(seed)
    for shape in ((1, 5, 6), (3, 1, 4, 2), (5, 1), (1, 1, 7)):
        n = int(np.prod(shape))
        for conn in ("full", "axis"):
            yield ScalarField(shape, rng.uniform(-1.0, 1.0, n), conn)
            yield ScalarField(shape, rng.integers(0, 3, n).astype(float), conn)
    yield ScalarField((1,), [2.0])
    yield ScalarField((1, 1), [-0.0], "full")


class TestLowerRows:
    """The flood's rows against the neighbor lists: pruned exactly by the
    rule of ``_lower_rows``, and complete under axis connectivity."""

    def fields(self):
        yield from tie_heavy_fields(3301, 240, GRIDS_4D)
        yield from extent_one_fields(43)

    def test_rows_are_the_pruned_lower_neighbors(self):
        for f in self.fields():
            order, rank = (a.tolist() for a in f.total_order())
            nbrs = f.neighbor_lists()
            lower, counts = _lower_rows(f)
            assert len(counts) == f.n_vertices and sum(counts) == len(lower)
            rows = iter(lower)
            for r, count in enumerate(counts):
                row = [next(rows) for _ in range(count)]
                full = [rank[u] for u in nbrs[order[r]] if rank[u] < r]
                assert set(row) <= set(full) and len(set(row)) == len(row)
                if full:
                    assert min(full) in row
                for d in full:
                    # d is dropped exactly when a lower neighbor before it is adjacent to it
                    nearer = [w for w in full if w < d and order[w] in nbrs[order[d]]]
                    assert (d not in row) == bool(nearer), (f, r, d)
                if f.connectivity.value == "axis":
                    assert row == full


class TestFloodMemory:
    def test_rows_never_exist_as_python_ints_all_at_once(self):
        # 256**2 uniform axis field: about 2 * n row entries.  As one list of Python ints
        # they would take about 36 bytes each (a pointer and an int object), so the
        # flood's traced peak read 9.77 MB when it held them; in slices it reads 5.93 MB.
        f = ScalarField((256, 256), np.random.default_rng(0).uniform(size=256 * 256))
        f.total_order()  # cached beforehand, so only the flood's own memory is traced
        tracemalloc.start()
        try:
            _dynamics_columns(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2**20


class TestPairColumns:
    def fields(self):
        yield from tie_heavy_fields(4099, 60, GRIDS_4D)
        yield ScalarField((1,), [2.0])

    def test_columns_are_the_pair_list(self):
        for f in self.fields():
            for cols, pairs in ((_persistence_columns(f), pair_by_persistence(f)),
                                (_dynamics_columns(f), pair_by_dynamics(f))):
                assert repr(cols.to_list()) == repr(pairs) and len(cols) == len(pairs)
                assert cols.mins.dtype == np.intp and cols.values.dtype == np.float64

    def test_json_records_lay_out_pairs_to_json(self):
        for f in self.fields():
            cols = _persistence_columns(f)
            keys, columns, rest = cols.json_records()
            rows = [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]
            assert repr(rows + rest) == repr(pairs_to_json(cols.to_list()))

    def test_routes_share_only_the_pair_order(self, monkeypatch):
        import dynpers.pairing as pairing

        f = ScalarField((6, 7), np.random.default_rng(3).integers(0, 4, 42).astype(float))
        expected = repr(pair_by_persistence(f))

        def forbidden(*args):
            raise AssertionError("one pairing route called the other")

        with monkeypatch.context() as m:
            for name in ("build_merge_tree", "_persistence_columns", "pair_by_persistence"):
                m.setattr(pairing, name, forbidden)
            assert repr(pairing.pair_by_dynamics(f)) == expected
        for name in ("_dynamics_columns", "pair_by_dynamics"):
            monkeypatch.setattr(pairing, name, forbidden)
        assert repr(pairing.pair_by_persistence(f)) == expected
