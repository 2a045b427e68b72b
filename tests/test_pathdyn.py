import heapq
import itertools
import math

import numpy as np
import pytest

from dynpers import (
    ScalarField,
    UsageError,
    dynamics_oracle,
    effort,
    exhaustive_dynamics,
    local_minima,
    pair_by_dynamics,
)

SIGNAL = ScalarField((5,), [5, 1, 4, 0, 6])
GRID33 = ScalarField((3, 3), [9, 8, 10, 2, 7, 3, 11, 12, 13])


def reference_oracle(field, m):
    """Best-first bottleneck search with a best-key map and lazy deletion."""
    vals = field.values
    key_m = (float(vals[m]), m)
    nbrs = field.neighbor_lists()

    # The absolute minimum has nothing lower to reach; argmin picks the least
    # index among tied minima, so it is the total order's least vertex.
    if int(vals.argmin()) == m:
        return (math.inf, None)

    best: dict = {m: key_m}
    heap = [(key_m[0], key_m[1], m)]
    while heap:
        bval, bvert, v = heapq.heappop(heap)
        bkey = (bval, bvert)
        if best.get(v) != bkey:
            continue
        if (float(vals[v]), v) < key_m:
            return (bval - key_m[0], bvert)
        for u in nbrs[v]:
            uk = (float(vals[u]), u)
            nk = bkey if bkey >= uk else uk
            old = best.get(u)
            if old is None or nk < old:
                best[u] = nk
                heapq.heappush(heap, (nk[0], nk[1], u))
    raise AssertionError("grid is connected; a lower vertex must be reachable")


def oracle_fields():
    """Tie-heavy values -- integers with 2-4 levels, {-0.0, 0.0, 1.0}, uniform
    random, constant -- on 1D, 2D axis, 2D full and 3D full grids, then
    uniform 2D axis and 3D full fields."""
    rng = np.random.default_rng(4099)
    grids = [((23,), "axis"), ((7, 9), "axis"), ((7, 9), "full"), ((4, 3, 5), "full")]
    for i in range(320):
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
    for seed in range(3):
        rng = np.random.default_rng(seed)
        yield ScalarField((24, 24), rng.uniform(size=576))
        yield ScalarField((8, 7, 9), rng.uniform(size=504), "full")


class TestEffort:
    def test_max_minus_min(self):
        f = ScalarField((3,), [1, 4, 0])
        assert effort(f, [0, 1, 2]) == 4.0

    def test_single_vertex(self):
        assert effort(SIGNAL, [2]) == 0.0

    def test_monotone_path_endpoints(self):
        f = ScalarField((4,), [0, 1, 2, 3])
        assert effort(f, [0, 1, 2, 3]) == 3.0

    def test_zero_iff_constant(self):
        f = ScalarField((3,), [2, 2, 2])
        assert effort(f, [0, 1, 2]) == 0.0

    def test_empty_path_rejected(self):
        with pytest.raises(UsageError):
            effort(SIGNAL, [])

    def test_non_adjacent_rejected(self):
        with pytest.raises(UsageError):
            effort(SIGNAL, [0, 2])


class TestDynamicsOracle:
    def test_signal_matchable(self):
        assert dynamics_oracle(SIGNAL, 1) == (3.0, 2)

    def test_signal_global_minimum(self):
        assert dynamics_oracle(SIGNAL, 3) == (math.inf, None)

    def test_3x3(self):
        m = 5  # the value-3 minimum
        assert dynamics_oracle(GRID33, m) == (4.0, 4)

    def test_rejects_non_minimum(self):
        with pytest.raises(UsageError):
            dynamics_oracle(SIGNAL, 0)

    def test_equal_barriers_resolve_by_index(self):
        # both exits climb over value 5; the bottleneck key picks index 1
        f = ScalarField((5,), [0, 5, 1, 5, 0.5])
        assert dynamics_oracle(f, 2) == (4.0, 1)

    def test_witness_is_order_greatest_max_on_path(self):
        # the barrier is a plateau {1, 2}; the witness is its later vertex,
        # matching the merge vertex of the filtration
        f = ScalarField((4,), [1, 5, 5, 0])
        assert dynamics_oracle(f, 0) == (4.0, 2)
        pairs = {p.min_vertex: p for p in pair_by_dynamics(f)}
        assert pairs[0].saddle_vertex == 2


class TestAgainstReference:
    def test_equal_to_best_first_search(self):
        checked = 0
        for f in oracle_fields():
            for m in local_minima(f):
                value, witness = dynamics_oracle(f, m)
                ref_value, ref_witness = reference_oracle(f, m)
                assert witness == ref_witness
                assert value == ref_value
                assert math.copysign(1.0, value) == math.copysign(1.0, ref_value)
                checked += 1
        assert checked > 2000

    def test_float_values_cache(self):
        for vals in ([0.0, -0.0, 3.5, -0.0], [2.0, 1.0, 1.0], [7.0]):
            f = ScalarField((len(vals),), vals)
            cached = f.float_values()
            floats, least = cached
            assert type(floats) is tuple and all(type(x) is float for x in floats)
            assert f.float_values() is cached
            assert repr(floats) == repr(tuple(f.values.tolist()))
            assert least == int(np.argmin(f.values))

    def test_oracle_never_builds_the_total_order(self):
        # the oracle must stay independent of the rank array the pairing
        # routes share, so it may not trigger its computation
        f = ScalarField((6, 7), np.random.default_rng(3).integers(0, 3, 42).astype(float))
        lists = f.neighbor_lists()
        keys = [(float(x), v) for v, x in enumerate(f.values)]
        minima = [v for v in range(42) if all(keys[v] < keys[u] for u in lists[v])]
        for m in minima:
            assert dynamics_oracle(f, m) == reference_oracle(f, m)
        assert f._order_cache is None


class TestTiedGlobalMinimum:
    """Only the total order's least vertex gets ``(inf, None)`` when minimum values tie."""

    def assert_least_is_essential(self, field):
        keys = [(float(v), i) for i, v in enumerate(field.values)]
        least = min(range(field.n_vertices), key=keys.__getitem__)
        for m in local_minima(field):
            value, witness = dynamics_oracle(field, m)
            assert (witness is None) == (m == least)
            assert math.isinf(value) == (m == least)
            if field.n_vertices <= 12:
                assert value == exhaustive_dynamics(field, m)

    def test_trailing_tie(self):
        f = ScalarField((3,), [1, 0, 0])
        assert dynamics_oracle(f, 1) == (math.inf, None)
        self.assert_least_is_essential(f)

    def test_tie_between_two_minima(self):
        f = ScalarField((3,), [0, 1, 0])
        assert dynamics_oracle(f, 0) == (math.inf, None)
        assert dynamics_oracle(f, 2) == (1.0, 1)
        self.assert_least_is_essential(f)

    def test_signed_zero_tie(self):
        f = ScalarField((3,), [0.0, 1.0, -0.0])
        assert dynamics_oracle(f, 0) == (math.inf, None)
        self.assert_least_is_essential(f)

    def test_constant_fields(self):
        for shape in [(1,), (4,), (3, 4), (2, 2, 3)]:
            for conn in ("axis", "full"):
                f = ScalarField(shape, np.full(int(np.prod(shape)), 2.5), conn)
                assert local_minima(f) == [0]
                assert dynamics_oracle(f, 0) == (math.inf, None)

    def test_few_levels_1d_to_3d_full(self):
        rng = np.random.default_rng(11)
        for i, (shape, conn) in enumerate([((3, 4), "axis"), ((2, 2, 3), "full"), ((4, 5, 3), "full")] * 8):
            vals = rng.integers(0, 2 + i % 3, size=int(np.prod(shape))).astype(float)
            self.assert_least_is_essential(ScalarField(shape, vals, conn))


class TestExhaustive:
    def test_signal(self):
        assert exhaustive_dynamics(SIGNAL, 1) == 3.0

    def test_single_route(self):
        f = ScalarField((3,), [2, 9, 1])
        assert exhaustive_dynamics(f, 0) == 7.0

    def test_single_minimum_infinite(self):
        f = ScalarField((4,), [0, 1, 2, 3])
        assert exhaustive_dynamics(f, 0) == math.inf

    def test_size_cap(self):
        f = ScalarField((13,), np.arange(13.0))
        with pytest.raises(UsageError):
            exhaustive_dynamics(f, 0)


class TestOracleTriangle:
    def assert_triangle(self, field):
        dyn_pairs = {p.min_vertex: p for p in pair_by_dynamics(field)}
        for m, p in dyn_pairs.items():
            value, witness = dynamics_oracle(field, m)
            assert value == exhaustive_dynamics(field, m)
            assert value == p.value
            assert witness == p.saddle_vertex

    def test_permutations_up_to_5(self):
        for n in range(1, 6):
            for perm in itertools.permutations(range(1, n + 1)):
                self.assert_triangle(ScalarField((n,), [float(v) for v in perm]))

    def test_random_2xk_grids(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            self.assert_triangle(ScalarField((2, 5), rng.uniform(0, 1, 10)))

    def test_tied_values(self):
        self.assert_triangle(ScalarField((6,), [2, 2, 1, 2, 0, 2]))
        self.assert_triangle(ScalarField((2, 3), [1, 1, 1, 1, 0, 1]))


class TestScaling:
    def test_shift_invariance(self):
        rng = np.random.default_rng(41)
        base = rng.uniform(0, 1, 20)
        f = ScalarField((20,), base)
        g = ScalarField((20,), base + 10.0)
        for m in [p.min_vertex for p in pair_by_dynamics(f) if not p.is_essential]:
            vf, wf = dynamics_oracle(f, m)
            vg, wg = dynamics_oracle(g, m)
            assert wf == wg
            assert math.isclose(vf, vg, rel_tol=0, abs_tol=1e-12)

    def test_positive_scaling(self):
        rng = np.random.default_rng(43)
        base = rng.uniform(0, 1, 20)
        f = ScalarField((20,), base)
        g = ScalarField((20,), base * 4.0)
        for m in [p.min_vertex for p in pair_by_dynamics(f) if not p.is_essential]:
            vf, wf = dynamics_oracle(f, m)
            vg, wg = dynamics_oracle(g, m)
            assert wf == wg
            assert vg == 4.0 * vf  # exact: values are scaled by a power of two


class TestUpperBound:
    def test_any_descending_path_bounds_dynamics(self):
        rng = np.random.default_rng(47)
        f = ScalarField((12,), rng.uniform(0, 1, 12))
        key = lambda v: (float(f.values[v]), v)
        for p in pair_by_dynamics(f):
            if p.is_essential:
                continue
            m = p.min_vertex
            # walk left and right until below m in the total order
            for step in (-1, 1):
                path = [m]
                v = m
                while 0 <= v + step < 12:
                    v += step
                    path.append(v)
                    if key(v) < key(m):
                        break
                if key(path[-1]) < key(m):
                    bound = max(float(f.values[u]) for u in path) - float(f.values[m])
                    assert dynamics_oracle(f, m)[0] <= bound
