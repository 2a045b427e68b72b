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
    _geometry_cache: list = _dc_field(default=None, repr=False, compare=False)

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


def _linear(shape, offset) -> int:
    """The linear offset of ``offset`` on a grid of ``shape``: its dot
    product with the row-major strides."""
    return sum(d * math.prod(shape[i + 1:]) for i, d in enumerate(offset))


def offset_slices(shape, connectivity) -> list:
    """``(offset, src, dst)`` per neighbor offset of the grid, in ascending
    linear offset; offsets that share one (on an axis of extent 2, ``(0, 1)``
    and ``(1, -1)`` both read 1) keep their product order.

    For an array ``a`` of the field's shape, ``a[dst]`` holds, position by
    position, the neighbor at ``offset`` of each vertex in ``a[src]``.
    """
    offsets = _offsets(shape, connectivity)
    linear = [_linear(shape, off) for off in offsets]
    # per axis and step, the (src, dst) slices along that axis
    cuts = [{-1: (slice(1, e), slice(0, e - 1)), 0: (slice(0, e), slice(0, e)),
             1: (slice(0, e - 1), slice(1, e))} for e in shape]
    out = []
    for j in np.argsort(linear, kind="stable").tolist():
        off = offsets[j]
        src, dst = zip(*(cut[d] for cut, d in zip(cuts, off)))
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
    :func:`offset_slices`.  On a box grid (:func:`_is_box`) the closed
    neighborhood is the box of the all-zero offset (:func:`_box_minima`).
    """
    if _is_box(key.shape, slices):
        zero = (0,) * key.ndim
        _, low, inner = _box_minima(key, [zero])
        return low[zero][inner].astype(key.dtype).reshape(-1)
    low = key.copy()
    for _, src, dst in slices:
        np.minimum(low[src], key[dst], out=low[src])
    return low.reshape(-1)


def _is_box(shape, slices) -> bool:
    """Whether the grid's neighborhood, its :func:`offset_slices` ``slices``,
    is the full box over two or more axes: more offsets than the two per
    axis of extent above 1 that axis connectivity has.  Only such grids have
    triangles, three pairwise adjacent vertices."""
    return len(slices) > 2 * sum(e > 1 for e in shape)


def _box_minima(key, offsets) -> tuple:
    """``(keys, low, inner)``: the keys and, per offset ``t`` of ``offsets``,
    the least key of every box ``cube(v) & cube(v + t)``, where ``cube(v)``
    is the vertex ``v`` with its full neighborhood.  Two vertices adjacent
    under full connectivity have as common neighbors exactly the other
    vertices of their box.

    ``key`` is an integer array of the grid's shape with entries below its
    size ``n``.  ``keys`` and ``low[t]`` are arrays of that shape padded
    with one layer of ``n`` on every axis of extent above 1, in the least
    unsigned type that holds ``n``, and ``inner`` the slices that select the
    grid in them.  A box reads ``n`` outside the grid, and ``low[t]`` holds
    it at every padded position.  On a flat padded array, an offset moves a
    position by the offset's dot product with the padded strides, and a
    vertex never leaves the padded array by one offset.

    The box is separable.  Per axis it spans the vertex's coordinate and the
    next one (``t = 1``), the previous one (``t = -1``) or both (``t = 0``),
    each a flat shift of the padded array by that axis' stride, and offsets
    that begin alike share the minima over their first axes.
    """
    n = key.size
    inner = tuple(slice(int(e > 1), int(e > 1) + e) for e in key.shape)
    keys = np.full([e + 2 * (e > 1) for e in key.shape], n, dtype=np.min_scalar_type(n))
    keys[inner] = key
    strides = [s // keys.itemsize for s in keys.strides]
    memo = {(): keys.reshape(-1)}  # per offset prefix, the minima over its axes
    for t in offsets:
        for axis, d in enumerate(t):
            prefix = tuple(t[:axis + 1])
            if prefix in memo:
                continue
            low = before = memo[prefix[:-1]]
            if key.shape[axis] > 1:
                s = strides[axis]
                low = before.copy()
                if d <= 0:
                    np.minimum(low[s:], before[:-s], out=low[s:])
                if d >= 0:
                    np.minimum(low[:-s], before[s:], out=low[:-s])
            memo[prefix] = low
    return keys, {t: memo[tuple(t)].reshape(keys.shape) for t in offsets}, inner


def local_minima(field: ScalarField) -> list:
    """Vertices all of whose neighbors come later in the total order.

    Returned sorted by the total order: the minima of the field's cached
    steepest descent (:func:`_descent_basins`).  On a field with
    all-distinct values this is exactly the set of strict value minima.
    """
    return _descent_basins(field)[0].tolist()


def _jump(parent: np.ndarray) -> np.ndarray:
    """Each entry's root in the forest ``parent`` (roots point to themselves),
    by pointer jumping: ``parent[parent]`` until nothing changes."""
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            return parent
        parent = nxt


def _boruvka(a, b, weight, k: int) -> np.ndarray:
    """The weights of the minimum spanning forest's edges ``(a[i], b[i])``
    over ``k`` nodes, ascending; ``weight`` is unique per edge, so the
    weights name the edges.

    Every component takes its least incident edge, hooks along it (a mutual
    pair hooks toward the smaller id) and pointer-jumps to its new root; the
    edges now inside one component are dropped.  Only the forest's weights
    are sorted.
    """
    ids = np.arange(k)
    forest = [weight[:0]]  # per round, the weights of the edges it takes
    w = weight  # the weights of the edges left; a and b hold their ends' roots
    none = np.iinfo(w.dtype).max
    while w.size:
        best = np.full(k, none)
        np.minimum.at(best, a, w)
        np.minimum.at(best, b, w)
        at_a = np.flatnonzero(w == best[a])  # the least edge of its a end
        at_b = np.flatnonzero(w == best[b])
        taken = np.zeros(w.size, dtype=bool)  # an edge may be the least of both ends
        taken[at_a] = taken[at_b] = True
        forest.append(w[taken])
        hook = ids.copy()
        hook[a[at_a]] = b[at_a]
        hook[b[at_b]] = a[at_b]
        mutual = (hook[hook] == ids) & (ids < hook)
        hook[mutual] = ids[mutual]
        hook = _jump(hook)
        a = hook[a]
        keep = np.flatnonzero(a != hook[b])  # the edges between two components
        a = a[keep]  # one edge array of full length at a time
        b = hook[b[keep]]
        w = w[keep]
    return np.sort(np.concatenate(forest))


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
    """``(a, b, weight)``: every edge of ``edges`` whose ends carry different
    labels, as the two labels and ``max(key) * n + min(key)``, a weight
    unique per edge.  ``key`` is a permutation of ``0 .. n - 1`` and
    ``label`` one nonnegative integer per vertex, both flat, and ``edges``
    grid edges as ``(heads, tails)``: all of them (:func:`_geometry`) or
    the :func:`_candidate_edges`.

    Every step is a gather by integer index; selecting by a boolean mask
    would branch on each edge, and the cut edges come in no pattern.  Only
    the label comparison reads every edge, in the least type that holds the
    labels, so besides ``edges`` no full-width array over every edge is
    made; the cut edges' keys go into the weight before their labels are
    gathered.
    """
    heads, tails = edges
    small = label.astype(np.min_scalar_type(label.max()))
    cut = np.flatnonzero(small[heads] != small[tails])
    del small
    heads, tails = heads[cut], tails[cut]
    del cut
    kh, kt = key[heads], key[tails]
    weight = np.maximum(kh, kt)
    weight *= key.size
    weight += np.minimum(kh, kt, out=kh)
    del kh, kt
    return label[heads], label[tails], weight


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
    grid's :func:`_candidate_edges` under ``key`` (or every edge,
    :func:`_geometry`, which gives the same forest).  ``hi`` and ``lo`` are
    the greater and the lesser key of each forest edge (:func:`_cut_edges`'
    weight, decoded), and ``ra`` and ``rb`` the roots that the
    :func:`_replay` of ``label[order[hi]]`` against ``label[order[lo]]``
    joins.
    """
    hi, lo = np.divmod(_boruvka(*_cut_edges(key, label, edges), k), key.size)
    return (hi, lo) + _replay(label[order[hi]], label[order[lo]], k)


def _candidate_edges(field: ScalarField, key) -> tuple:
    """``(heads, tails)``, ``heads < tails``: the grid edges that can lie in
    the minimum spanning forest under the weights ``max(key) * n +
    min(key)``, ``key`` a flat permutation of ``0 .. n - 1``.

    On a box grid (:func:`_is_box`) an edge whose box (:func:`_box_minima`)
    holds a key below both of its ends closes a triangle with that vertex,
    and it is the triangle's heaviest edge, so by the cycle property no
    minimum spanning forest holds it; only the edges whose lesser key is
    their box's least are kept, per offset greater than zero.  Other grids
    have no triangles and keep every edge (:func:`_geometry`).
    """
    slices = _offset_slices(field)
    shape = field.shape
    if not _is_box(shape, slices):
        return _geometry(field)[1]
    zero = (0,) * field.ndim
    offsets = [off for off, _, _ in slices if off > zero]
    keys, low, inner = _box_minima(key.reshape(shape), offsets)
    flat, n = keys.reshape(-1), key.size
    heads, tails = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]  # maybe no edge
    for off in offsets:
        t = _linear(keys.shape, off)  # positive, as the offset is
        a, b = flat[:-t], flat[t:]
        keep = np.zeros(keys.shape, dtype=bool)
        kept = keep.reshape(-1)[:-t]  # by the lesser position of each pair
        np.equal(np.minimum(a, b), low[off].reshape(-1)[:-t], out=kept)
        kept &= np.maximum(a, b) < n  # both ends in the grid
        head = np.flatnonzero(keep[inner])
        heads.append(head)
        tails.append(head + _linear(shape, off))
    return np.concatenate(heads), np.concatenate(tails)


def _offset_slices(field: ScalarField) -> tuple:
    """The field's :func:`offset_slices` as a tuple, cached per field in the
    first slot of its :func:`_geometry`; the edge list is not built."""
    if field._geometry_cache is None:
        slices = tuple(offset_slices(field.shape, field.connectivity))
        object.__setattr__(field, "_geometry_cache", [slices, None])
    return field._geometry_cache[0]


def _geometry(field: ScalarField) -> list:
    """``[slices, edges]``: the field's grid geometry, cached per field and
    shared by the fields of :func:`_with_values`.  ``slices`` are its
    :func:`offset_slices` as a tuple (:func:`_offset_slices`), and
    ``edges`` every grid edge once as two read-only int arrays ``(heads,
    tails)`` with ``heads < tails``, ascending by ``(head, tail)``.

    The edges are the slots of a per-vertex table, one slot per offset
    greater than zero in ascending linear offset (each offset's ``±`` pair
    gives one direction of the same edges), read in row-major order; two
    offsets with one linear offset never both lead inside the grid from one
    vertex, so the tails of a head ascend strictly.

    The edge list is built on the first call, for the callers that need
    every edge; the descent, the plateaus, the box-grid forests
    (:func:`_candidate_edges`) and the flood read the slices alone and
    leave its slot ``None``.
    """
    slices = _offset_slices(field)
    geometry = field._geometry_cache
    if geometry[1] is None:
        zero = (0,) * field.ndim
        forward = [(off, src) for off, src, _ in slices if off > zero]
        slot = np.zeros(field.shape + (len(forward),), dtype=bool)
        for j, (_, src) in enumerate(forward):
            slot[src + (j,)] = True
        at = np.flatnonzero(slot)
        heads = at // len(forward)
        steps = np.array([_linear(field.shape, off) for off, _ in forward], dtype=np.intp)
        at -= heads * len(forward)  # the slot's index in its vertex's row
        tails = steps[at]
        tails += heads
        edges = (heads, tails)
        for column in edges:
            column.flags.writeable = False
        geometry[1] = edges
    return geometry


def _with_values(field: ScalarField, values) -> ScalarField:
    """A field of ``values`` on the grid of ``field``, sharing its cached
    :func:`_geometry`, which depends on the shape and connectivity alone."""
    out = ScalarField(field.shape, values, field.connectivity)
    _offset_slices(field)  # the slot that both fields share, edges built or not
    object.__setattr__(out, "_geometry_cache", field._geometry_cache)
    return out


def _descent_basins(field: ScalarField) -> tuple:
    """``(minima, basin, step)``: the local minima sorted by the total order,
    per vertex the age of the minimum its steepest descent ends at (its index
    in ``minima``), and per vertex the rank of its first step down: the
    :func:`_descent` of the ranks.  Cached per field as read-only int arrays.
    """
    if field._basin_cache is None:
        order, rank = field.total_order()
        step, is_min, basin = _descent(rank.reshape(field.shape), _offset_slices(field))
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
