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
    _float_cache: tuple = _dc_field(default=None, repr=False, compare=False)

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
        object.__setattr__(self, "_float_cache", None)

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

        ``order`` is the stable argsort of the values; ``rank`` is its inverse,
        so ``rank[u] < rank[v]`` exactly when ``(value, u) < (value, v)``.
        """
        if self._order_cache is None:
            order = np.argsort(self.values, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            order.flags.writeable = False
            rank.flags.writeable = False
            object.__setattr__(self, "_order_cache", (order, rank))
        return self._order_cache

    def float_values(self) -> tuple:
        """``(floats, least)``: the values as a tuple of Python floats and the
        total order's least vertex (cached, computed once per field).

        Both come from ``values`` alone, never from :meth:`total_order`, so the
        path oracle that reads them stays independent of the pairing routes.
        ``argmin`` picks the least index among tied minima, which is the least
        vertex of the ``(value, index)`` order.
        """
        if self._float_cache is None:
            floats = tuple(self.values.tolist())
            object.__setattr__(self, "_float_cache", (floats, int(self.values.argmin())))
        return self._float_cache


def _offsets(ndim: int, connectivity: Connectivity):
    if connectivity is Connectivity.AXIS:
        offs = []
        for i in range(ndim):
            for d in (-1, 1):
                off = [0] * ndim
                off[i] = d
                offs.append(tuple(off))
        return offs
    return [off for off in itertools.product((-1, 0, 1), repeat=ndim) if any(off)]


def offset_slices(shape, connectivity) -> list:
    """``(offset, src, dst)`` per neighbor offset of the grid.

    For an array ``a`` of the field's shape, ``a[dst]`` holds, position by
    position, the neighbor at ``offset`` of each vertex in ``a[src]``.
    """
    out = []
    for off in _offsets(len(shape), connectivity):
        src = tuple(slice(max(0, -d), e - max(0, d)) for d, e in zip(off, shape))
        dst = tuple(slice(max(0, d), e - max(0, -d)) for d, e in zip(off, shape))
        out.append((off, src, dst))
    return out


def _build_neighbor_lists(shape, connectivity) -> list:
    # One (n, k) table with a column per offset, the columns in ascending
    # linear offset so each row is already sorted; -1 marks a neighbor
    # outside the box and is filtered only from the rows that hold one.
    n = int(np.prod(shape))
    lin = np.arange(n).reshape(shape)
    strides = [int(np.prod(shape[i + 1:])) for i in range(len(shape))]
    slices = sorted(
        offset_slices(shape, connectivity),
        key=lambda osd: sum(d * s for d, s in zip(osd[0], strides)),
    )
    table = np.full(tuple(shape) + (len(slices),), -1, dtype=np.intp)
    for j, (_, src, dst) in enumerate(slices):
        table[src + (j,)] = lin[dst]
    table = table.reshape(n, len(slices))
    lists = table.tolist()
    for v in np.flatnonzero((table < 0).any(axis=1)).tolist():
        lists[v] = [u for u in lists[v] if u >= 0]
    return lists


def order_key(field: ScalarField, v: int) -> tuple:
    """Total-order key of a vertex: ``(value, linear index)``."""
    v = field.check_vertex(v)
    return (float(field.values[v]), v)


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


def local_minima(field: ScalarField) -> list:
    """Vertices all of whose neighbors come later in the total order.

    Returned sorted by the total order.  On a field with all-distinct values
    this is exactly the set of strict value minima.
    """
    order, rank = field.total_order()
    rank = rank.reshape(field.shape)
    is_min = np.ones(field.shape, dtype=bool)
    for _, src, dst in offset_slices(field.shape, field.connectivity):
        is_min[src] &= rank[src] < rank[dst]
    return order[is_min.reshape(-1)[order]].tolist()


def filtration_order(field: ScalarField) -> list:
    """All vertices sorted ascending by the total order (a fresh list).

    The first k entries are the discrete sublevel set after k insertions.
    """
    return field.total_order()[0].tolist()
