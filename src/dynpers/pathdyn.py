"""Path-based dynamics: the independent oracle the flooding results are checked against.

The dynamics of a local minimum is the least, over all grid walks that reach a
total-order-smaller vertex, of the highest value met on the way, minus the
minimum's own value.  :func:`dynamics_oracle` computes it with a best-first
bottleneck (minimax) search; :func:`exhaustive_dynamics` re-derives it by brute
force on tiny fields.
"""

from __future__ import annotations

import heapq
import math

from .errors import UsageError
from .grid import ScalarField

INF = math.inf


def _require_local_minimum(field: ScalarField, m: int) -> tuple:
    m = field.check_vertex(m)
    vals = field.values
    key = (float(vals[m]), m)
    for u in field.neighbor_lists()[m]:
        if (float(vals[u]), u) < key:
            raise UsageError(f"vertex {m} is not a local minimum of the field")
    return key


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
    """Dynamics of a local minimum plus the witness saddle, by minimax search.

    Expands vertices in ascending order of the bottleneck key
    ``max over the path of (value, index)``, so ties resolve by the total
    order and the witness is the total-order-greatest vertex attaining the
    path maximum -- the same vertex at which the flooding merge happens.

    Returns ``(value, witness)``; the total-order-least vertex of the field
    gets ``(inf, None)``.
    """
    key_m = _require_local_minimum(field, m)
    vals = field.values
    nbrs = field.neighbor_lists()

    # The absolute minimum has nothing lower to reach; argmin picks the least
    # index among tied minima, so it is the total order's least vertex.
    if int(vals.argmin()) == m:
        return (INF, None)

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
    key_m = _require_local_minimum(field, m)
    vals = field.values
    nbrs = field.neighbor_lists()

    targets = [
        v for v in range(field.n_vertices) if (float(vals[v]), v) < key_m
    ]
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
            nm = cur_max if cur_max >= float(vals[u]) else float(vals[u])
            if nm - fm >= best:
                continue
            if (float(vals[u]), u) < key_m:
                best = nm - fm
                continue
            visited[u] = True
            walk(u, nm)
            visited[u] = False

    walk(m, fm)
    return best
