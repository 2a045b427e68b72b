"""Scalar fields on regular grids and the strict total vertex order.

A field is a flat array of finite values over an n-dimensional box, read in
row-major order.  Vertices are identified by their linear index.  All
comparisons between vertices go through the lexicographic key
``(value, linear index)``, which turns any stored data into a field with
"unique critical values" without perturbing the values themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as _dc_field
from enum import Enum

import numpy as np

from .errors import UsageError


class Connectivity(Enum):
    """Neighborhood used on the grid: 2n axis neighbors or the full 3^n - 1."""

    AXIS = "axis"
    FULL = "full"


def _as_connectivity(value) -> Connectivity:
    if isinstance(value, Connectivity):
        return value
    try:
        return Connectivity(value)
    except ValueError:
        raise UsageError(f"unknown connectivity {value!r}; use 'axis' or 'full'") from None


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Immutable scalar field on a regular grid.

    Parameters
    ----------
    shape : tuple of int
        Extent per axis, every extent >= 1.
    values : ndarray
        Flat float64 array of finite values, row-major, one per vertex; the
        range ``max - min`` must be finite too, so every pair value is.
    connectivity : Connectivity or str
        Neighborhood rule, ``axis`` (default) or ``full``.
    """

    shape: tuple
    values: np.ndarray
    connectivity: Connectivity = Connectivity.AXIS
    _neighbor_cache: list = _dc_field(default=None, repr=False, compare=False)
    _order_cache: tuple = _dc_field(default=None, repr=False, compare=False)
    _oracle_cache: tuple = _dc_field(default=None, repr=False, compare=False)
    _basin_cache: tuple = _dc_field(default=None, repr=False, compare=False)
    _geometry_cache: tuple = _dc_field(default=None, repr=False, compare=False)

    def __init__(self, shape, values, connectivity=Connectivity.AXIS):
        shape = tuple(int(e) for e in shape)
        if len(shape) < 1:
            raise UsageError("field shape needs at least one axis")
        if any(e < 1 for e in shape):
            raise UsageError(f"every extent must be >= 1, got {shape}")
        vals = np.asarray(values, dtype=np.float64).reshape(-1)
        n = int(np.prod(shape))
        if vals.size != n:
            raise UsageError(
                f"value count {vals.size} does not match shape {shape} ({n} vertices)"
            )
        if not np.all(np.isfinite(vals)):
            raise UsageError("field values must all be finite")
        if not math.isfinite(float(vals.max()) - float(vals.min())):
            raise UsageError("field value range max - min overflows float64")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "connectivity", _as_connectivity(connectivity))
        object.__setattr__(self, "_neighbor_cache", None)
        object.__setattr__(self, "_order_cache", None)
        object.__setattr__(self, "_oracle_cache", None)
        object.__setattr__(self, "_basin_cache", None)
        object.__setattr__(self, "_geometry_cache", None)

    @property
    def n_vertices(self) -> int:
        return self.values.size

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def check_vertex(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self.n_vertices:
            raise UsageError(f"vertex {v} out of range for field with {self.n_vertices} vertices")
        return v

    def neighbor_lists(self) -> list:
        """All neighbor lists at once (cached); ``lists[v]`` is sorted ascending."""
        if self._neighbor_cache is None:
            object.__setattr__(
                self, "_neighbor_cache", _build_neighbor_lists(self.shape, self.connectivity)
            )
        return self._neighbor_cache

    def total_order(self) -> tuple:
        """``(order, rank)`` of the strict total order (cached, read-only int arrays).

        ``order`` is the vertices sorted by ``(value, index)``
        (:func:`_vertex_order`); ``rank`` is its inverse, so
        ``rank[u] < rank[v]`` exactly when ``(value, u) < (value, v)``.
        """
        if self._order_cache is None:
            order = _vertex_order(self.values)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            order.flags.writeable = False
            rank.flags.writeable = False
            object.__setattr__(self, "_order_cache", (order, rank))
        return self._order_cache


def _vertex_order(values) -> np.ndarray:
    """The vertices sorted by ``(value, index)``: what a stable argsort of
    ``values`` gives, from numpy's default (SIMD) argsort.

    Where neighbouring sorted values are equal (ties, and ``-0.0`` beside
    ``0.0``), the order is fixed by sorting the unique integer keys
    ``run * n + index``, ``run`` counting the runs of equal values before
    the vertex's own.  The keys stay below ``n ** 2``, which fits int64 for
    ``n < 3 * 10 ** 9``.
    """
    order = np.argsort(values)
    ascending = values[order]
    starts = np.empty(order.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=starts[1:])
    if not starts.all():
        base = (np.cumsum(starts) - 1) * order.size
        order = np.sort(base + order) - base  # a sort keeps each run at its place
    return order


def _offsets(shape, connectivity: Connectivity):
    """Neighbor offsets of the grid, leaving out every offset that moves along
    an axis of extent 1: no vertex has a neighbor there, and the full
    neighborhood would otherwise grow threefold per such axis."""
    ndim = len(shape)
    if connectivity is Connectivity.AXIS:
        return [
            tuple(d if j == i else 0 for j in range(ndim))
            for i in range(ndim)
            if shape[i] > 1
            for d in (-1, 1)
        ]
    steps = [(-1, 0, 1) if e > 1 else (0,) for e in shape]
    return [off for off in itertools.product(*steps) if any(off)]


def offset_slices(shape, connectivity) -> list:
    """``(offset, src, dst)`` per neighbor offset of the grid, in ascending
    linear offset; offsets that share one (on an axis of extent 2, ``(0, 1)``
    and ``(1, -1)`` both read 1) keep their product order.

    For an array ``a`` of the field's shape, ``a[dst]`` holds, position by
    position, the neighbor at ``offset`` of each vertex in ``a[src]``.
    """
    strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    out = []
    for off in sorted(_offsets(shape, connectivity),
                      key=lambda off: sum(d * s for d, s in zip(off, strides))):
        src = tuple(slice(max(0, -d), e - max(0, d)) for d, e in zip(off, shape))
        dst = tuple(slice(max(0, d), e - max(0, -d)) for d, e in zip(off, shape))
        out.append((off, src, dst))
    return out


def neighbor_table(shape, connectivity) -> np.ndarray:
    """``(n, k)`` array of every vertex's neighbors, -1 outside the box.

    One column per offset, the columns in ascending linear offset, so each
    row's neighbors are sorted ascending.
    """
    lin = np.arange(int(np.prod(shape))).reshape(shape)
    return _neighbor_table(lin, offset_slices(shape, connectivity), -1)


def _neighbor_table(grid, slices, fill) -> np.ndarray:
    """``(n, k)`` array: per vertex, the entries of ``grid`` (an array of the
    grid's shape) at its neighbors, ``fill`` outside the box.

    One column per offset of the grid's :func:`offset_slices` ``slices``, in
    their order.
    """
    table = np.full(grid.shape + (len(slices),), fill, dtype=grid.dtype)
    for j, (_, src, dst) in enumerate(slices):
        table[src + (j,)] = grid[dst]
    return table.reshape(grid.size, len(slices))


def _build_neighbor_lists(shape, connectivity) -> list:
    # -1 is filtered only from the rows that hold one.
    table = neighbor_table(shape, connectivity)
    lists = table.tolist()
    for v in np.flatnonzero((table < 0).any(axis=1)).tolist():
        lists[v] = [u for u in lists[v] if u >= 0]
    return lists


def precedes(field: ScalarField, a: int, b: int) -> bool:
    """Strict total order: does ``a`` come before ``b``?

    Smaller value wins; ties are broken by the linear index, so the order is
    total on any stored data.
    """
    a = field.check_vertex(a)
    b = field.check_vertex(b)
    if a == b:
        raise UsageError("precedes() is a strict order; the two vertices must differ")
    return (float(field.values[a]), a) < (float(field.values[b]), b)


def sort_vertices(field: ScalarField, vertices) -> list:
    """Sort a vertex collection ascending by the total order."""
    rank = field.total_order()[1]
    return sorted((field.check_vertex(v) for v in vertices), key=rank.__getitem__)


def neighbors(field: ScalarField, v: int) -> list:
    """Grid neighbors of ``v`` under the field's connectivity, sorted ascending."""
    v = field.check_vertex(v)
    return list(field.neighbor_lists()[v])


def _least_key(key, slices) -> np.ndarray:
    """Per vertex, the least key among the vertex and its neighbors, flat.

    ``key`` is an integer array of the grid's shape and ``slices`` its
    :func:`offset_slices`.
    """
    low = key.copy()
    for _, src, dst in slices:
        np.minimum(low[src], key[dst], out=low[src])
    return low.reshape(-1)


def local_minima(field: ScalarField) -> list:
    """Vertices all of whose neighbors come later in the total order.

    Returned sorted by the total order.  On a field with all-distinct values
    this is exactly the set of strict value minima.
    """
    order, rank = field.total_order()
    low = _least_key(rank.reshape(field.shape), _geometry(field)[0])
    return order[(low == rank)[order]].tolist()


def _jump(parent: np.ndarray) -> np.ndarray:
    """Each entry's root in the forest ``parent`` (roots point to themselves),
    by pointer jumping: ``parent[parent]`` until nothing changes."""
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            return parent
        parent = nxt


def _boruvka(a, b, weight, k: int) -> np.ndarray:
    """Indices of the minimum spanning forest's edges ``(a[i], b[i])`` over
    ``k`` nodes, ascending by ``weight``, which is unique per edge.

    Every component takes its least incident edge, hooks along it (a mutual
    pair hooks toward the smaller id) and pointer-jumps to its new root; the
    edges now inside one component are dropped.  Only the forest's edges
    are sorted.
    """
    ids = np.arange(k)
    forest = np.zeros(a.size, dtype=bool)
    edge, w = np.arange(a.size), weight  # the edges left; a and b hold their ends' roots
    none = np.iinfo(w.dtype).max
    while edge.size:
        best = np.full(k, none)
        np.minimum.at(best, a, w)
        np.minimum.at(best, b, w)
        at_a = np.flatnonzero(w == best[a])  # the least edge of its a end
        at_b = np.flatnonzero(w == best[b])
        forest[edge[at_a]] = forest[edge[at_b]] = True
        hook = ids.copy()
        hook[a[at_a]] = b[at_a]
        hook[b[at_b]] = a[at_b]
        mutual = (hook[hook] == ids) & (ids < hook)
        hook[mutual] = ids[mutual]
        hook = _jump(hook)
        a, b = hook[a], hook[b]
        keep = np.flatnonzero(a != b)
        a, b, w, edge = a[keep], b[keep], w[keep], edge[keep]
    forest = np.flatnonzero(forest)
    return forest[np.argsort(weight[forest])]


def _descent(key, slices) -> tuple:
    """``(step, is_min, tree)`` of the steepest descent over a key permutation.

    ``key`` is a permutation of ``0 .. n - 1`` in the grid's shape and
    ``slices`` its :func:`offset_slices`.  Each vertex steps to its least-key
    neighbor, or stays if none is lower; pointer jumping then follows every
    path to its end.  ``step`` is, per vertex, the key of its first step
    (:func:`_least_key`), ``is_min``, per key, whether that key's vertex is a
    local minimum, and ``tree``, per vertex, the age of the minimum its
    descent ends at: the minimum's index among the minima in key order.
    """
    step = _least_key(key, slices)
    flat = key.reshape(-1)
    down = np.empty_like(step)
    down[flat] = step  # per key, the key one step down
    is_min = down == np.arange(down.size)
    return step, is_min, (np.cumsum(is_min) - 1)[_jump(down)][flat]


def _cut_edges(key, label, edges) -> tuple:
    """``(a, b, weight)``: every grid edge whose ends carry different labels,
    as the two labels and ``max(key) * n + min(key)``, a weight unique per
    edge.  ``key`` is a permutation of ``0 .. n - 1`` and ``label`` one
    integer per vertex, both flat, and ``edges`` the grid's ``(heads,
    tails)`` (:func:`_geometry`).

    Every step is a gather by integer index; selecting by a boolean mask
    would branch on each edge, and the cut edges come in no pattern.
    """
    heads, tails = edges
    a, b = label[heads], label[tails]
    cut = np.flatnonzero(a != b)
    a, b = a[cut], b[cut]  # frees the labels of all edges before the keys are read
    kh, kt = key[heads[cut]], key[tails[cut]]
    weight = np.maximum(kh, kt)
    weight *= key.size
    weight += np.minimum(kh, kt)
    return a, b, weight


def _replay(a, b, k: int) -> tuple:
    """``(ra, rb)``: per edge ``(a[i], b[i])`` over ``k`` nodes, replayed in
    order over a union-find whose root is a component's least id (path
    halving), the roots of the two components the edge joins."""
    parent = list(range(k))
    ra, rb = [], []
    for x, y in zip(a.tolist(), b.tolist()):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        ra.append(x)
        rb.append(y)
        if x < y:
            parent[y] = x
        else:
            parent[x] = y
    return np.array(ra, dtype=np.intp), np.array(rb, dtype=np.intp)


def _kruskal(key, order, label, edges, k: int) -> tuple:
    """``(hi, lo, ra, rb)``: Kruskal's algorithm over the grid edges between
    ``k`` labelled trees, one entry per edge of the minimum spanning forest,
    ascending by weight.

    ``key`` is a permutation of ``0 .. n - 1`` and ``order`` its inverse,
    ``label`` a tree id below ``k`` per vertex, all flat, and ``edges`` the
    grid's (:func:`_geometry`).  ``hi`` and ``lo`` are the greater and the
    lesser key of each forest edge (:func:`_cut_edges`' weight, decoded), and
    ``ra`` and ``rb`` the roots that the :func:`_replay` of
    ``label[order[hi]]`` against ``label[order[lo]]`` joins.
    """
    a, b, weight = _cut_edges(key, label, edges)
    hi, lo = np.divmod(weight[_boruvka(a, b, weight, k)], key.size)
    return (hi, lo) + _replay(label[order[hi]], label[order[lo]], k)


def _geometry(field: ScalarField) -> tuple:
    """``(slices, edges)`` of the field's grid, cached per field: its
    :func:`offset_slices` as a tuple, and ``edges``, every grid edge once as
    two read-only int arrays ``(heads, tails)`` with ``heads < tails``, one
    block per offset greater than zero (each offset's ``±`` pair gives one
    direction of the same edges).
    """
    if field._geometry_cache is None:
        slices = tuple(offset_slices(field.shape, field.connectivity))
        lin = np.arange(field.n_vertices).reshape(field.shape)
        zero = (0,) * field.ndim
        heads, tails = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]  # maybe no edge
        for off, src, dst in slices:
            if off > zero:
                heads.append(lin[src].reshape(-1))
                tails.append(lin[dst].reshape(-1))
        edges = (np.concatenate(heads), np.concatenate(tails))
        for column in edges:
            column.flags.writeable = False
        object.__setattr__(field, "_geometry_cache", (slices, edges))
    return field._geometry_cache


def _with_values(field: ScalarField, values) -> ScalarField:
    """A field of ``values`` on the grid of ``field``, sharing its cached
    :func:`_geometry`, which depends on the shape and connectivity alone."""
    out = ScalarField(field.shape, values, field.connectivity)
    object.__setattr__(out, "_geometry_cache", _geometry(field))
    return out


def _descent_basins(field: ScalarField) -> tuple:
    """``(minima, basin, step)``: the local minima sorted by the total order,
    per vertex the age of the minimum its steepest descent ends at (its index
    in ``minima``), and per vertex the rank of its first step down: the
    :func:`_descent` of the ranks.  Cached per field as read-only int arrays.
    """
    if field._basin_cache is None:
        order, rank = field.total_order()
        step, is_min, basin = _descent(rank.reshape(field.shape), _geometry(field)[0])
        cache = (order[is_min], basin, step)
        for column in cache:
            column.flags.writeable = False
        object.__setattr__(field, "_basin_cache", cache)
    return field._basin_cache


def filtration_order(field: ScalarField) -> list:
    """All vertices sorted ascending by the total order (a fresh list).

    The first k entries are the discrete sublevel set after k insertions.
    """
    return field.total_order()[0].tolist()
