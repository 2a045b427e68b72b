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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .grid import Connectivity, ScalarField, _descent_basins, filtration_order, offset_slices
from .pairing import build_merge_tree, pair_by_persistence


def minimal_regions(field: ScalarField) -> list:
    """Representative vertices of the minimal plateaus, sorted by total order.

    A plateau is a connected region of equal value; it is minimal when no
    neighbor of the region has a strictly smaller value.  The representative
    is the region's total-order-least vertex.
    """
    vals = field.values.reshape(field.shape)
    lin = np.arange(field.n_vertices).reshape(field.shape)
    lower = np.zeros(field.shape, dtype=bool)  # has a strictly lower neighbor
    flat_a, flat_b = [], []  # equal-valued edges, each once
    for off, src, dst in offset_slices(field.shape, field.connectivity):
        lower[src] |= vals[dst] < vals[src]
        if off > (0,) * field.ndim:
            eq = vals[src] == vals[dst]
            flat_a.append(lin[src][eq])
            flat_b.append(lin[dst][eq])
    lower = lower.reshape(-1)

    # Union-find over the equal edges, always linking to the smaller root, so
    # each plateau's root is its least index: its representative.
    parent = {}

    def find(x):
        while x in parent:
            nxt = parent.get(parent[x], parent[x])  # path halving
            parent[x] = nxt
            x = nxt
        return x

    for a, b in zip(np.concatenate(flat_a).tolist(), np.concatenate(flat_b).tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    linked = list(parent)  # every plateau vertex but the roots
    members = np.array(linked, dtype=np.intp)
    roots = np.array([find(x) for x in linked], dtype=np.intp)
    is_rep = ~lower
    is_rep[members] = False
    is_rep[roots[lower[members]]] = False  # a plateau with a lower border is not minimal
    order = field.total_order()[0]
    return order[is_rep[order]].tolist()


@dataclass(frozen=True)
class WatershedLabels:
    """Per-vertex basin labels; a basin is named by its minimum's vertex id."""

    labels: tuple
    shape: tuple
    connectivity: Connectivity

    @property
    def region_count(self) -> int:
        return len(set(self.labels))

    def boundary_edges(self, field: ScalarField) -> set:
        """Edges (u, v), u < v, whose endpoints carry different labels."""
        out = set()
        for u, v in iter_edges(field):
            if self.labels[u] != self.labels[v]:
                out.add((u, v))
        return out


def iter_edges(field: ScalarField):
    """All grid edges as (u, v) with u < v, in ascending order."""
    lists = field.neighbor_lists()
    for u in range(field.n_vertices):
        for v in lists[u]:
            if v > u:
                yield (u, v)


def watershed_from_markers(field: ScalarField, markers) -> WatershedLabels:
    """Flood the field from the given marker vertices.

    Markers are labeled with themselves, then vertices are popped from a
    priority queue in ascending total order of the frontier; each takes the
    label of its total-order-least already-labeled neighbor.  Deterministic.
    """
    order = filtration_order(field)
    rank = field.total_order()[1].tolist()
    nbrs = field.neighbor_lists()
    markers = [field.check_vertex(m) for m in markers]
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
    return WatershedLabels(labels=tuple(labels), shape=field.shape, connectivity=field.connectivity)


def watershed(field: ScalarField) -> WatershedLabels:
    """One basin per minimal plateau, flooding in filtration order."""
    return watershed_from_markers(field, minimal_regions(field))


def filter_dynamics(field: ScalarField, t: float) -> ScalarField:
    """Cancel every pair with value below ``t`` (connected filter).

    Each vertex takes the value ``f(s*)`` of ``s*``, the rank-greatest
    cancelled saddle whose dying component contains it: the vertices of rank
    below the saddle connected to the pair's minimum in the input field.
    Vertices in no such component keep their value.  Values never decrease;
    the output has no surviving minimum with dynamics below ``t``.

    One reverse pass over the merge tree's events.  Along the chain of deaths
    of a vertex's descent basin (the basin's minimum, then the minimum it
    dies into, and so on) the saddle ranks increase, and the vertex lies in
    the dying component of a chain member exactly when its rank is below
    that member's saddle.  So the owner is the greatest cancelled saddle on
    the chain whenever its rank exceeds the vertex's, and otherwise no
    cancelled pair contains the vertex.

    ``t`` must be positive and must not equal any finite pair value, because
    the boundary case would be ambiguous; such a collision is rejected.
    """
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise UsageError(f"filter threshold must be positive and finite, got {t}")
    order, rank = field.total_order()
    tree = build_merge_tree(field)
    dying = np.array(tree.dying_mins, dtype=np.intp)
    value = np.array(tree.levels, dtype=np.float64) - field.values[dying]
    hit = dying[value == t]
    if hit.size:
        least = min(zip(field.values[hit].tolist(), hit.tolist()))[1]
        raise UsageError(
            f"threshold {t} collides with the pair value {t} of minimum "
            f"{least}; pick a value strictly between pair values"
        )
    cancelled = np.where(value < t, rank[np.array(tree.saddles, dtype=np.intp)], -1).tolist()
    top = {}  # minimum -> greatest cancelled saddle rank on its chain of deaths
    for dying_min, survivor, c in zip(
        reversed(tree.dying_mins), reversed(tree.survivor_mins), reversed(cancelled)
    ):
        top[dying_min] = max(c, top.get(survivor, -1))
    owner = np.array([top.get(m, -1) for m in tree.minima], dtype=np.intp)
    owner = owner[_descent_basins(field)[1]]
    out = np.where(rank < owner, field.values[order[owner]], field.values)
    return ScalarField(field.shape, out, field.connectivity)


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
        return {"breakpoints": list(self.breakpoints), "counts": list(self.counts)}


def granulometric_curve(pairs) -> GranulometricCurve:
    """Curve from a pairing: total minima minus pairs cancelled below t."""
    finite = sorted(p.value for p in pairs if not p.is_essential)
    total = len(pairs)  # one pair per minimum, essential included
    breakpoints = sorted(set(finite))
    counts = [total] + [total - bisect_right(finite, b) for b in breakpoints]
    return GranulometricCurve(breakpoints=tuple(breakpoints), counts=tuple(counts))


@dataclass(frozen=True)
class SaliencyMap:
    """Extinction value per grid edge: the largest threshold still separating it.

    Zero on edges interior to a basin; on a watershed boundary edge it is the
    pair value at which the two basins become one under progressive
    cancellation.
    """

    edge_values: tuple  # ((u, v), value) sorted by edge
    shape: tuple
    connectivity: Connectivity

    def as_dict(self) -> dict:
        return dict(self.edge_values)

    def edges_at_least(self, t: float) -> set:
        return {e for e, val in self.edge_values if val >= t}

    def to_json(self) -> dict:
        return {f"{u},{v}": val for (u, v), val in self.edge_values}


def _fuse_levels(parent, weight, basin_pairs) -> dict:
    """Largest absorption-tree weight on the path between each pair's basins.

    Kruskal order: joining the tree edges ``(weight[m], m, parent[m])`` by
    ascending weight, a pair's basins first share a set at the union over the
    heaviest edge of their path.  Each set root keeps its unresolved pairs;
    at a union the smaller list is resolved or moved into the larger one.
    """
    pending = {}
    for key in basin_pairs:
        pending.setdefault(key[0], []).append(key)
        pending.setdefault(key[1], []).append(key)
    up = {}  # union-find links; roots have no entry

    def find(x):
        while x in up:
            nxt = up.get(up[x], up[x])  # path halving
            up[x] = nxt
            x = nxt
        return x

    level = {}
    for w, m, p in sorted((weight[m], m, parent[m]) for m in parent):
        small, large = find(m), find(p)
        if len(pending.get(small, ())) > len(pending.get(large, ())):
            small, large = large, small
        up[small] = large
        moved = pending.pop(small, ())
        if moved:
            keep = pending.setdefault(large, [])
            for key in moved:
                if key in level:
                    continue
                if find(key[0]) == find(key[1]):
                    level[key] = w
                else:
                    keep.append(key)
    return level


def saliency(field: ScalarField) -> SaliencyMap:
    """Closed-form saliency from the cancellation hierarchy.

    Each dying minimum of the merge tree is absorbed by the watershed basin
    of its event's gate, at its pair value.  The saliency of a boundary edge
    between basins a and b is the largest weight on the path from a to b in
    this absorption tree: the threshold at which progressive cancellation
    finally fuses their regions.
    """
    lab = watershed(field).labels
    vals = field.values.tolist()
    tree = build_merge_tree(field)
    # dying minimum -> the basin its water runs into, and its pair value
    parent = {m: lab[gate] for m, gate in zip(tree.dying_mins, tree.gates)}
    weight = {m: level - vals[m] for m, level in zip(tree.dying_mins, tree.levels)}

    def basin_pair(u, v):
        a, b = lab[u], lab[v]
        return None if a == b else (a, b) if a < b else (b, a)

    # Two passes over the edges, so no per-edge list is held beside the output.
    fuse = _fuse_levels(parent, weight, {basin_pair(u, v) for u, v in iter_edges(field)} - {None})
    edge_values = []
    for u, v in iter_edges(field):
        key = basin_pair(u, v)
        edge_values.append(((u, v), 0.0 if key is None else fuse[key]))
    return SaliencyMap(
        edge_values=tuple(edge_values), shape=field.shape, connectivity=field.connectivity
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
    for (u, v), val in sal.edge_values:
        cu = np.unravel_index(u, sal.shape)
        cv = np.unravel_index(v, sal.shape)
        pos = tuple(a + b for a, b in zip(cu, cv))
        out[pos] = val
    return ScalarField(doubled, out.reshape(-1), Connectivity.AXIS)


def segment_pipeline(field: ScalarField, t: float):
    """Simplify at ``t``, then watershed, pair and count the filtered field.

    Returns ``(filtered field, labels, pairs of the filtered field,
    granulometric curve of the filtered field)``.  The region count equals the
    number of minima of the input whose dynamics is at least ``t``.
    """
    filtered = filter_dynamics(field, t)
    labels = watershed(filtered)
    pairs = pair_by_persistence(filtered)
    curve = granulometric_curve(pairs)
    return filtered, labels, pairs, curve
