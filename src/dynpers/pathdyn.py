"""Path-based dynamics: the independent oracle the flooding results are checked against.

The dynamics of a local minimum is the least, over all grid walks that reach a
total-order-smaller vertex, of the highest value met on the way, minus the
minimum's own value.  :func:`dynamics_oracle` computes it with a priority-flood
minimax search over the integer keys of :meth:`ScalarField.key_graph`,
computed once per field from the values alone; :func:`exhaustive_dynamics`
re-derives it by brute force on tiny fields.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from .errors import UsageError
from .grid import ScalarField

INF = math.inf


def effort(field: ScalarField, path) -> float:
    """Highest minus lowest value along a grid walk.

    ``path`` is a nonempty vertex sequence whose consecutive entries are grid
    neighbors; a single vertex has effort 0.
    """
    verts = [field.check_vertex(v) for v in path]
    if not verts:
        raise UsageError("effort of an empty path is undefined")
    nbrs = field.neighbor_lists()
    for a, b in zip(verts, verts[1:]):
        if b not in nbrs[a]:
            raise UsageError(f"vertices {a} and {b} are consecutive in the path but not adjacent")
    vals = field.values
    seen = [float(vals[v]) for v in verts]
    return max(seen) - min(seen)


def dynamics_oracle(field: ScalarField, m: int) -> tuple:
    """Dynamics of a local minimum plus the witness saddle, by priority flood.

    Works on the integer keys of :meth:`ScalarField.key_graph`, a vertex's
    position in the ``(value, index)`` order.  Floods outward from ``m``,
    always popping the least frontier key and pushing each vertex once, and
    keeps ``top``, the greatest key popped so far, until it pops a key below
    ``m``'s.  The popped set is then connected and holds ``m`` and a lower
    vertex, so some walk between them stays at or below ``top``.  Until then
    the frontier always holds a vertex of the best walk, so no popped key
    exceeds that walk's maximum.  ``top`` is therefore the minimax key ``max
    over the path of (value, index)``: ties resolve by the total order, and
    the witness is the total-order-greatest vertex attaining the path maximum
    -- the same vertex at which the flooding merge happens.

    The flood returns one step earlier, as soon as it discovers a key below
    ``m``'s: that key goes onto the frontier, so the next pop would be below
    ``m``'s and end the flood with the same ``top``, which changes only at a
    pop.  A lower key among ``m``'s own neighbors means ``m`` is no local
    minimum.

    Returns ``(value, witness)``; the total-order-least vertex of the field
    gets ``(inf, None)``.
    """
    m = field.check_vertex(m)
    keys, verts, rows = field.key_graph()
    key_m = keys[m]
    if key_m == 0:
        return (INF, None)

    seen = {-1, key_m}  # -1 stands for every neighbor outside the box
    frontier = [key_m]
    top = key_m
    while frontier:
        key = heappop(frontier)
        if key > top:
            top = key
        for u in rows[key]:
            if u not in seen:
                if u < key_m:
                    if key == key_m:  # a neighbor of m itself
                        raise UsageError(f"vertex {m} is not a local minimum of the field")
                    w = verts[top]
                    return (field.values.item(w) - field.values.item(m), w)
                seen.add(u)
                heappush(frontier, u)
    raise AssertionError("grid is connected; a lower vertex must be reachable")


MAX_EXHAUSTIVE_VERTICES = 12


def exhaustive_dynamics(field: ScalarField, m: int) -> float:
    """Brute-force dynamics: minimize the path maximum over all simple walks.

    Only for fields of at most 12 vertices; exact reference for
    :func:`dynamics_oracle`.
    """
    if field.n_vertices > MAX_EXHAUSTIVE_VERTICES:
        raise UsageError(
            f"exhaustive_dynamics enumerates walks on at most {MAX_EXHAUSTIVE_VERTICES} "
            f"vertices, got {field.n_vertices}"
        )
    m = field.check_vertex(m)
    vals = field.values.tolist()
    nbrs = field.neighbor_lists()
    key_m = (vals[m], m)
    if any((vals[u], u) < key_m for u in nbrs[m]):
        raise UsageError(f"vertex {m} is not a local minimum of the field")

    targets = [v for v in range(field.n_vertices) if (vals[v], v) < key_m]
    if not targets:
        return INF

    fm = key_m[0]
    best = INF
    visited = [False] * field.n_vertices
    visited[m] = True

    def walk(v: int, cur_max: float):
        nonlocal best
        for u in nbrs[v]:
            if visited[u]:
                continue
            nm = cur_max if cur_max >= vals[u] else vals[u]
            if nm - fm >= best:
                continue
            if (vals[u], u) < key_m:
                best = nm - fm
                continue
            visited[u] = True
            walk(u, nm)
            visited[u] = False

    walk(m, fm)
    return best
