"""Dynamics-threshold simplification, watershed, granulometry and saliency.

The connected filter cancels every pair below a threshold by raising the dying
sublevel component to its death level; the watershed floods one basin per
minimum; the granulometric curve counts surviving minima per threshold; the
saliency map assigns each watershed boundary edge the threshold at which its
two basins become one.

Cancellation creates flat zones, so minima here are plateau regions: a
connected set of equal values with no strictly lower border.  On a field with
all-distinct values this coincides with the vertex-wise definition in
:mod:`dynpers.grid`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError
from .grid import (
    Connectivity,
    ScalarField,
    _descent_basins,
    _geometry,
    _jump,
    _replay,
    _with_values,
    filtration_order,
)
from .pairing import _persistence_columns, build_merge_tree


def _plateaus(field: ScalarField) -> tuple:
    """``(plateau, lower)``: per vertex, the least vertex of its plateau (its
    connected set of equal values), and whether it has a strictly lower neighbor.

    ``lower`` reads the cached steepest step (:func:`grid._descent_basins`):
    the least-rank vertex of a neighborhood is strictly lower than the vertex
    exactly when some neighbor is.  The plateaus hook and jump over the
    field's equal-valued edges: each round links every plateau root to the
    least root across its edges, then pointer-jumps; edges inside one
    plateau are dropped.
    """
    values = field.values
    lower = values[field.total_order()[0][_descent_basins(field)[2]]] < values
    heads, tails = _geometry(field)[1]
    equal = np.flatnonzero(values[heads] == values[tails])
    a, b = heads[equal], tails[equal]
    plateau = np.arange(field.n_vertices)
    while a.size:
        np.minimum.at(plateau, np.maximum(a, b), np.minimum(a, b))
        plateau = _jump(plateau)
        a, b = plateau[a], plateau[b]
        keep = a != b
        a, b = a[keep], b[keep]
    return plateau, lower


def minimal_regions(field: ScalarField) -> list:
    """Representative vertices of the minimal plateaus, sorted by total order.

    A plateau is a connected region of equal value; it is minimal when no
    neighbor of the region has a strictly smaller value.  The representative
    is the region's total-order-least vertex.
    """
    return _minimal_regions(field, *_plateaus(field))


def _minimal_regions(field: ScalarField, plateau, lower) -> list:
    """:func:`minimal_regions` from the field's :func:`_plateaus`."""
    is_rep = plateau == np.arange(field.n_vertices)
    is_rep[plateau[lower]] = False  # a plateau with a lower border is not minimal
    order = field.total_order()[0]
    return order[is_rep[order]].tolist()


@dataclass(frozen=True, eq=False)
class WatershedLabels:
    """Per-vertex basin labels; a basin is named by its minimum's vertex id.

    The labels are kept as a read-only int array, ``_labels``;
    :attr:`labels` builds their tuple on first use.
    """

    _labels: np.ndarray
    shape: tuple
    connectivity: Connectivity

    def __post_init__(self):
        self._labels.flags.writeable = False

    @cached_property
    def labels(self) -> tuple:
        return tuple(self._labels.tolist())

    @property
    def region_count(self) -> int:
        return int(np.count_nonzero(np.bincount(self._labels)))

    def boundary_edges(self, field: ScalarField) -> set:
        """Edges (u, v), u < v, whose endpoints carry different labels."""
        heads, tails = _geometry(field)[1]
        lab = self._labels
        cut = lab[heads] != lab[tails]
        return set(zip(heads[cut].tolist(), tails[cut].tolist()))


def _edge_arrays(field: ScalarField) -> tuple:
    """``(heads, tails)``: every grid edge once, ``heads < tails``, ascending by
    ``(head, tail)``: the field's cached edge list, sorted by the unique keys
    ``head * n + tail`` (below ``n ** 2``).

    The list is one ascending run per offset, which numpy's stable sort
    (timsort) merges in about linear time.
    """
    heads, tails = _geometry(field)[1]
    pick = np.argsort(heads * field.n_vertices + tails, kind="stable")
    return heads[pick], tails[pick]


def iter_edges(field: ScalarField):
    """All grid edges as (u, v) with u < v, in ascending order."""
    heads, tails = _edge_arrays(field)
    return zip(heads.tolist(), tails.tolist())


def _basin_redirects(field: ScalarField, minima, basin, markers, plateaus):
    """Per local minimum (by age), the age of the marker minimum whose label
    its descent basin takes; ``None`` when the markers need the flood (see
    :func:`watershed_from_markers` for the condition).  ``plateaus`` is the
    field's :func:`_plateaus`, or ``None`` to search them only if needed."""
    mins = minima.tolist()
    marked = set(markers)
    if not marked <= set(mins):
        return None
    redirect = np.arange(minima.size)
    unmarked = np.array([age for age, m in enumerate(mins) if m not in marked], dtype=np.intp)
    if unmarked.size:
        plateau, lower = _plateaus(field) if plateaus is None else plateaus
        exits = np.bincount(plateau[lower], minlength=field.n_vertices)
        exit_vertex = np.zeros(field.n_vertices, dtype=np.intp)
        exit_vertex[plateau[lower]] = np.flatnonzero(lower)
        held = np.zeros(field.n_vertices, dtype=bool)
        held[plateau[markers]] = True
        where = plateau[minima[unmarked]]
        if (exits[where] != 1).any() or held[where].any():
            return None
        redirect[unmarked] = basin[exit_vertex[where]]  # a lower minimum's age
    return _jump(redirect)


def watershed_from_markers(field: ScalarField, markers, *, _known_plateaus=None) -> WatershedLabels:
    """Flood the field from the given marker vertices.

    Markers are labeled with themselves, then vertices are popped from a
    priority queue in ascending total order of the frontier; each takes the
    label of its total-order-least already-labeled neighbor.  Deterministic.

    No queue is needed, and each vertex takes the label of its
    steepest-descent basin, when every marker is a vertex-wise local minimum
    and every other local minimum ``p`` lies on a plateau (a connected set
    of equal values) that holds no marker and has exactly one vertex ``e``
    with a strictly lower neighbor.  ``p``'s basin then takes the label of
    ``e``'s basin, whose minimum is lower; the redirects are chased down to
    markers.

    Why: outside such plateaus every vertex but the markers has a neighbor
    before it in the total order, so when it is the least unlabeled vertex
    it is on the frontier; those vertices pop in total order, and each takes
    the label of its steepest-descent step.  In such a plateau only ``e``
    has a lower neighbor, so every other neighbor outside it is higher, and
    while part of the plateau is unlabeled the frontier holds a vertex no
    higher than the plateau, so none of those higher neighbors pops.  The
    flood thus enters the plateau through ``e`` alone, after ``e``'s
    steepest-descent step, and fills it with ``e``'s label.  A marker inside
    the plateau would flood it too, in competition with ``e``; that is why
    the plateau must hold none.

    ``_known_plateaus`` is private to :func:`watershed`, which has already
    searched the field's plateaus for its markers.
    """
    markers = list(map(int, markers))
    ids = np.array(markers)  # an object array if some marker overflows int64
    bad = np.flatnonzero((ids < 0) | (ids >= field.n_vertices))
    if bad.size:
        field.check_vertex(markers[bad[0]])  # raises, naming the first bad marker
    minima, basin, _ = _descent_basins(field)
    redirect = _basin_redirects(field, minima, basin, markers, _known_plateaus)
    if redirect is not None:
        return WatershedLabels(minima[redirect[basin]], field.shape, field.connectivity)
    order = filtration_order(field)
    rank = field.total_order()[1].tolist()
    nbrs = field.neighbor_lists()
    labels = [-1] * field.n_vertices
    queued = [False] * field.n_vertices
    heap = []  # ranks of the frontier; each vertex is queued once
    for m in markers:
        labels[m] = m
    for m in markers:
        for u in nbrs[m]:
            if labels[u] < 0 and not queued[u]:
                queued[u] = True
                heapq.heappush(heap, rank[u])
    while heap:
        v = order[heapq.heappop(heap)]
        best = -1  # total-order-least labeled neighbor
        for u in nbrs[v]:
            if labels[u] >= 0:
                if best < 0 or rank[u] < rank[best]:
                    best = u
            elif not queued[u]:
                queued[u] = True
                heapq.heappush(heap, rank[u])
        assert best >= 0, "queued vertices always have a labeled neighbor"
        labels[v] = labels[best]
    if -1 in labels:
        raise UsageError("markers did not cover the field (empty marker set?)")
    return WatershedLabels(np.array(labels, dtype=np.intp), field.shape, field.connectivity)


def watershed(field: ScalarField) -> WatershedLabels:
    """One basin per minimal plateau, flooding in filtration order."""
    plateaus = _plateaus(field)
    markers = _minimal_regions(field, *plateaus)
    return watershed_from_markers(field, markers, _known_plateaus=plateaus)


def filter_dynamics(field: ScalarField, t: float) -> ScalarField:
    """Cancel every pair with value below ``t`` (connected filter).

    Each vertex takes the value ``f(s*)`` of ``s*``, the rank-greatest
    cancelled saddle whose dying component contains it: the vertices of rank
    below the saddle connected to the pair's minimum in the input field.
    Vertices in no such component keep their value.  Values never decrease;
    the output has no surviving minimum with dynamics below ``t``.

    Along the chain of deaths of a vertex's descent basin (the basin's
    minimum, then the minimum it dies into, and so on) the saddle ranks
    increase, and the vertex lies in the dying component of a chain member
    exactly when its rank is below that member's saddle.  So the owner is the
    greatest cancelled saddle on the chain whenever its rank exceeds the
    vertex's, and otherwise no cancelled pair contains the vertex.  Pointer
    doubling over the merge tree's deaths takes that greatest rank for every
    minimum at once.

    ``t`` must be positive and must not equal any finite pair value, because
    the boundary case would be ambiguous; such a collision is rejected.
    """
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise UsageError(f"filter threshold must be positive and finite, got {t}")
    order, rank = field.total_order()
    tree = build_merge_tree(field)
    dying = tree._dying_mins
    value = tree._levels - field.values[dying]
    hit = dying[value == t]
    if hit.size:
        least = min(zip(field.values[hit].tolist(), hit.tolist()))[1]
        raise UsageError(
            f"threshold {t} collides with the pair value {t} of minimum "
            f"{least}; pick a value strictly between pair values"
        )
    basin = _descent_basins(field)[1]
    ages = basin[dying]  # a minimum lies in its own basin
    # per age, the age it dies into and its saddle's rank if cancelled, else -1
    up = np.arange(tree._minima.size)
    up[ages] = basin[tree._survivor_mins]
    top = np.full(up.size, -1)
    top[ages] = np.where(value < t, rank[tree._saddles], -1)
    # the greatest of those ranks along each chain of deaths, by pointer doubling
    while True:
        top = np.maximum(top, top[up])
        nxt = up[up]
        if np.array_equal(nxt, up):
            break
        up = nxt
    owner = top[basin]
    out = np.where(rank < owner, field.values[order[owner]], field.values)
    return _with_values(field, out)


@dataclass(frozen=True)
class GranulometricCurve:
    """Surviving-minima count as a function of the cancellation threshold.

    ``breakpoints`` are the distinct finite pair values, ascending;
    ``counts[k]`` is the number of minima with dynamics >= t on the interval
    up to and including ``breakpoints[k]`` (``counts[-1]`` is the count beyond
    the last breakpoint, 1 on a connected grid).
    """

    breakpoints: tuple
    counts: tuple

    def value_at(self, t: float) -> int:
        """Number of minima with dynamics >= t (t positive)."""
        if not t > 0.0:
            raise UsageError(f"granulometric curve is defined for t > 0, got {t}")
        return self.counts[bisect_left(self.breakpoints, t)]

    def to_json(self) -> dict:
        return _curve_json(list(self.breakpoints), list(self.counts))


def _curve_json(breakpoints, counts) -> dict:
    """The curve's JSON object, from its two columns (lists or arrays)."""
    return {"breakpoints": breakpoints, "counts": counts}


def _curve_columns(values, total: int) -> tuple:
    """``(breakpoints, counts)`` of the curve as arrays, from the finite pair
    values in ascending order and the number of pairs, essential included.

    A breakpoint is the first value of each run of equal values, so where
    ``0.0`` and ``-0.0`` both occur the earlier one stands for the run.
    """
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    breakpoints = values[first]
    counts = np.concatenate(([total], total - np.searchsorted(values, breakpoints, side="right")))
    return breakpoints, counts


def _curve(breakpoints, counts) -> GranulometricCurve:
    return GranulometricCurve(tuple(breakpoints.tolist()), tuple(counts.tolist()))


def granulometric_curve(pairs) -> GranulometricCurve:
    """Curve from a pairing: total minima minus pairs cancelled below t."""
    finite = np.array([p.value for p in pairs if not p.is_essential], dtype=np.float64)
    return _curve(*_curve_columns(np.sort(finite, kind="stable"), len(pairs)))


@dataclass(frozen=True, eq=False)
class SaliencyMap:
    """Extinction value per grid edge: the largest threshold still separating it.

    Zero on edges interior to a basin; on a watershed boundary edge it is the
    pair value at which the two basins become one under progressive
    cancellation.

    The edges are stored as columns, one entry per grid edge in ascending
    ``(u, v)`` order, ``u < v``: ``heads`` holds ``u``, ``tails`` holds ``v``
    and ``values`` the saliency.  :attr:`edge_values` builds the
    ``((u, v), value)`` tuple on first use.
    """

    heads: np.ndarray
    tails: np.ndarray
    values: np.ndarray
    shape: tuple
    connectivity: Connectivity

    @cached_property
    def edge_values(self) -> tuple:
        return tuple(zip(zip(self.heads.tolist(), self.tails.tolist()), self.values.tolist()))

    def as_dict(self) -> dict:
        return dict(self.edge_values)

    def edges_at_least(self, t: float) -> set:
        keep = self.values >= t
        return set(zip(self.heads[keep].tolist(), self.tails[keep].tolist()))

    def to_json(self) -> dict:
        edges = zip(self.heads.tolist(), self.tails.tolist(), self.values.tolist())
        return {f"{u},{v}": val for u, v, val in edges}


def _reconstruction_tree(child, parent, leaves: int) -> np.ndarray:
    """Per node of the Kruskal reconstruction tree of the forest edges
    ``child[j] - parent[j]`` over ``leaves`` nodes, its parent; a root points
    to itself.  Edge ``j`` adds node ``leaves + j``.

    The node sits above the node of each root that edge ``j`` joins in the
    :func:`grid._replay`: the node of that root's previous edge, or else the
    root's own leaf.  The edges join distinct roots, so the ``(root, edge)``
    entries are unique, and sorted by ``root * m + edge`` each entry's
    predecessor within its root is the previous edge.
    """
    m = child.size
    root = np.concatenate(_replay(child, parent, leaves))
    edge = np.tile(np.arange(m), 2)
    entry = np.argsort(root * m + edge)
    root, node = root[entry], edge[entry] + leaves
    first = np.ones(root.size, dtype=bool)
    first[1:] = root[1:] != root[:-1]
    up = np.arange(leaves + m)
    up[np.where(first, root, np.roll(node, 1))] = node
    return up


def _fuse_levels(child, parent, weight, lo, hi, leaves: int) -> np.ndarray:
    """Largest absorption-tree weight on the path between leaves ``lo[i]`` and ``hi[i]``.

    The tree's edges ``child[j] - parent[j]`` come in Kruskal order, by
    ascending weight; nodes are ids below ``leaves``.  Its Kruskal
    reconstruction tree adds one node per edge, above the two sets the edge
    joins, so node ids grow towards the root, and the lowest common ancestor
    of two leaves is the union that first joins them: the heaviest edge of
    their path, and of equal weights the last in order.  Numpy links it from
    the roots of the shared union-find replay (:func:`_reconstruction_tree`);
    binary lifting answers every pair at once.
    """
    step = _reconstruction_tree(child, parent, leaves)
    # anc[j][x] is the 2**j-th ancestor of x, or its root when that is nearer.
    depth = (step != np.arange(step.size)).astype(np.intp)  # distance from x to step[x]
    anc = [step]
    while True:
        nxt = step[step]
        if np.array_equal(nxt, step):
            break
        depth += depth[step]
        anc.append(nxt)
        step = nxt
    deeper = depth[lo] >= depth[hi]
    a, b = np.where(deeper, lo, hi), np.where(deeper, hi, lo)
    gap = depth[a] - depth[b]
    for j, jump in enumerate(anc):
        a = np.where((gap >> j) & 1, jump[a], a)
    for jump in reversed(anc):
        apart = jump[a] != jump[b]
        a, b = np.where(apart, jump[a], a), np.where(apart, jump[b], b)
    # Two distinct leaves never stand one above the other, so a != b here.
    return weight[anc[0][a] - leaves]


def saliency(field: ScalarField) -> SaliencyMap:
    """Closed-form saliency from the cancellation hierarchy.

    Each dying minimum of the merge tree is absorbed by the watershed basin
    of its event's gate, at its pair value.  The saliency of a boundary edge
    between basins a and b is the largest weight on the path from a to b in
    this absorption tree: the threshold at which progressive cancellation
    finally fuses their regions.
    """
    lab = watershed(field)._labels
    heads, tails = _edge_arrays(field)
    a, b = lab[heads], lab[tails]
    cut = np.flatnonzero(a != b)
    values = np.zeros(heads.size)
    if cut.size:
        n = field.n_vertices
        # distinct basin pairs, as lo * n + hi with lo < hi
        pairs, which = np.unique(
            np.minimum(a[cut], b[cut]) * n + np.maximum(a[cut], b[cut]), return_inverse=True
        )
        tree = build_merge_tree(field)
        dying = tree._dying_mins
        weight = tree._levels - field.values[dying]
        kruskal = np.lexsort((dying, weight))
        dying = dying[kruskal]
        # every vertex in play (dying minima, absorbing basins, pair ends) as a compact id
        ends = (dying, lab[tree._gates[kruskal]], pairs // n, pairs % n)
        nodes, compact = np.unique(np.concatenate(ends), return_inverse=True)
        child, parent, lo, hi = np.split(compact, np.cumsum([e.size for e in ends[:3]]))
        fuse = _fuse_levels(child, parent, weight[kruskal], lo, hi, nodes.size)
        values[cut] = fuse[which]
    for column in (heads, tails, values):
        column.flags.writeable = False
    return SaliencyMap(
        heads=heads, tails=tails, values=values, shape=field.shape, connectivity=field.connectivity
    )


def saliency_to_field(sal: SaliencyMap) -> ScalarField:
    """Saliency on the doubled-resolution interleaved grid.

    Axis-edge values land at the odd coordinate between their endpoints; all
    other positions are zero.  Only defined for axis connectivity, where every
    edge has such a position.
    """
    if sal.connectivity is not Connectivity.AXIS:
        raise UsageError("the interleaved-grid form needs axis connectivity; use the edge list")
    doubled = tuple(2 * e - 1 for e in sal.shape)
    out = np.zeros(doubled, dtype=np.float64)
    head = np.unravel_index(sal.heads, sal.shape)
    tail = np.unravel_index(sal.tails, sal.shape)
    out[tuple(h + t for h, t in zip(head, tail))] = sal.values
    return ScalarField(doubled, out.reshape(-1), Connectivity.AXIS)


def _segment_columns(field: ScalarField, t: float) -> tuple:
    """:func:`segment_pipeline` with the pairs as columns (a
    ``pairing._PairColumns``) and the curve as its ``(breakpoints, counts)``
    arrays."""
    filtered = filter_dynamics(field, t)
    labels = watershed(filtered)
    pairs = _persistence_columns(filtered)
    return filtered, labels, pairs, _curve_columns(pairs.values, len(pairs))


def segment_pipeline(field: ScalarField, t: float):
    """Simplify at ``t``, then watershed, pair and count the filtered field.

    Returns ``(filtered field, labels, pairs of the filtered field,
    granulometric curve of the filtered field)``.  The region count equals the
    number of minima of the input whose dynamics is at least ``t``.
    """
    filtered, labels, pairs, curve = _segment_columns(field, t)
    return filtered, labels, pairs.to_list(), _curve(*curve)
