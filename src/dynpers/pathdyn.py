"""Path-based dynamics: the independent oracle the flooding results are checked against.

The dynamics of a local minimum is the least, over all grid walks that reach a
total-order-smaller vertex, of the highest value met on the way, minus the
minimum's own value.  :func:`oracle_columns` computes it for every local
minimum at once from a minimum spanning forest of the grid edges, keyed by the
values alone; :func:`dynamics_oracle` reads one minimum from it, and
:func:`exhaustive_dynamics` re-derives it by brute force on tiny fields.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .grid import (
    ScalarField,
    _candidate_edges,
    _descent,
    _kruskal,
    _offset_slices,
    _vertex_order,
)

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
    """Dynamics of a local minimum plus the witness saddle, read from
    :func:`oracle_columns`.

    Returns ``(value, witness)``; the total-order-least vertex of the field
    gets ``(inf, None)``.
    """
    m = field.check_vertex(m)
    values, witnesses = oracle_columns(field)
    value, w = values.item(m), witnesses.item(m)
    if math.isnan(value):
        raise UsageError(f"vertex {m} is not a local minimum of the field")
    return (value, None if w < 0 else w)


def oracle_columns(field: ScalarField) -> tuple:
    """``(value, witness)`` per vertex: every local minimum's dynamics and
    witness saddle, ``nan`` and -1 on every other vertex, ``inf`` and -1 on the
    total-order-least vertex.  Cached per field as read-only arrays.

    Each vertex gets its key, its position in the ``(value, index)`` order,
    from :func:`grid._vertex_order` of the values (never from
    :meth:`ScalarField.total_order`), and each grid edge the weight
    ``max(key) * n + min(key)``, unique per edge.  A walk's highest key is
    its heaviest edge's ``max(key)``, so a minimum ``m``'s value is the
    minimax key of a walk from ``m`` to a lower key.  Add the edges by
    ascending weight (Kruskal): that minimax key is the ``max(key)`` of the
    first edge after which ``m``'s component holds a key below ``m``'s, and
    the witness is the vertex with that key.  Adding an edge joins two
    components; only the component whose least key is the greater one gains
    a lower key, and every other vertex of it already had one, so the edge
    answers exactly that component's least key: the greater of the two roots
    it joins.  Edges inside a component change nothing, and minimax paths
    lie in a minimum spanning forest (Hu 1961), so only the forest's edges
    are replayed (:func:`grid._kruskal`).

    The forest comes from Borůvka rounds.  Round one is in closed form: a
    vertex's lightest edge goes to its least-key neighbor, and every vertex
    with a lower neighbor hooks along it.  That edge is the vertex's lightest
    of all, so Kruskal adds it while the vertex is still alone and at its own
    key: it answers a vertex that is no local minimum and is never replayed.
    The components left are trees hanging from the local minima
    (:func:`grid._descent` of the keys); the later rounds run on the grid
    edges between them that can lie in the forest
    (:func:`grid._candidate_edges`).  Under full connectivity an edge whose
    box holds a key below both ends is the heaviest edge of a triangle and
    is dropped, so the oracle's keys thin the edges once more, by their own
    box minima; under axis connectivity every edge is a candidate.

    From :mod:`dynpers.grid` the oracle takes only the field's offset slices
    (``_offset_slices``), ``_vertex_order``, ``_descent``,
    ``_candidate_edges`` and ``_kruskal`` (the cut edges, Borůvka and the
    shared replay), which the merge tree runs on its own keys, the ranks;
    its keys come from the values alone, and it never builds the total order
    or the field's descent basins.
    """
    if field._oracle_cache is None:
        n = field.n_vertices
        verts = _vertex_order(field.values)
        key = np.empty(n, dtype=np.intp)
        key[verts] = np.arange(n)
        # tree ids ascend with their minima's keys
        _, is_min, tree = _descent(key.reshape(field.shape), _offset_slices(field))
        edges = _candidate_edges(field, key)
        top, _, x, y = _kruskal(key, verts, tree, edges, int(is_min.sum()))

        mins = verts[np.flatnonzero(is_min)]
        value = np.full(n, np.nan)
        witness = np.full(n, -1, dtype=np.intp)
        value[mins[0]] = INF
        dying, top = mins[np.maximum(x, y)], verts[top]  # the elder rule
        value[dying] = field.values[top] - field.values[dying]
        witness[dying] = top
        value.flags.writeable = False
        witness.flags.writeable = False
        object.__setattr__(field, "_oracle_cache", (value, witness))
    return field._oracle_cache


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
