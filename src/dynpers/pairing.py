"""Minimum / 1-saddle pairing by sublevel persistence and by flooding dynamics.

Both computations consume the same sublevel filtration but are deliberately
separate code paths: :func:`pair_by_persistence` runs union-find over the
growing sublevel sets and applies the elder rule at every merge, while
:func:`pair_by_dynamics` tells the flooding story with explicit lakes and
member relabeling.  Their agreement on every field is the central property
this package exists to check, so neither calls the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError
from .grid import ScalarField, filtration_order

INF = math.inf


@dataclass(frozen=True)
class MergeEvent:
    """One two-component join of the sublevel filtration.

    ``saddle`` is the vertex whose insertion joined the components, ``level``
    its value.  ``survivor_min`` is the elder component's minimum and precedes
    ``dying_min`` in the total order.
    """

    saddle: int
    survivor_min: int
    dying_min: int
    level: float


@dataclass(frozen=True)
class MergeTree:
    """Merge events in filtration order plus the minima that seeded components.

    On a connected grid ``len(events) == len(minima) - 1``.  A vertex whose
    insertion joins k >= 2 components contributes k - 1 events at its level,
    each joining the current survivor with the next dying component, the dying
    minima taken in descending total order.

    ``gates[i]`` is the gate of ``events[i]``: the total-order-least lower
    neighbor of the saddle on the elder side, which is the survivor's
    component plus every component joined at that saddle whose minimum
    precedes the dying one.  Water of the dying component that overflows the
    saddle runs down to the gate.
    """

    events: tuple
    minima: tuple
    gates: tuple


def build_merge_tree(field: ScalarField) -> MergeTree:
    """Union-find sweep of the sublevel filtration."""
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
            events.append(
                MergeEvent(saddle=v, survivor_min=survivor, dying_min=dying, level=level)
            )
            gates.append(g)
        for r in roots:
            parent[r] = r0
        comp_min[r0] = survivor
    return MergeTree(events=tuple(events), minima=tuple(minima), gates=tuple(gates))


@dataclass(frozen=True)
class PersistencePair:
    """A minimum, the saddle that kills its component, and the lifetime.

    The total-order-least minimum of a connected field is essential: it gets
    ``value == inf`` and no saddle/death.
    """

    min_vertex: int
    saddle_vertex: int | None
    birth: float
    death: float | None
    value: float

    @property
    def is_essential(self) -> bool:
        return self.saddle_vertex is None


def _sorted_pairs(finite, essential):
    finite.sort(key=lambda p: (p.value, p.birth, p.min_vertex))
    return finite + essential


def pair_by_persistence(field: ScalarField) -> list:
    """One pair per merge event (elder rule) plus the essential pair.

    Each finite pair is ``(dying minimum, merge saddle)`` with
    ``value = f(saddle) - f(minimum)``; pairs come sorted ascending by value,
    essential pair last.
    """
    tree = build_merge_tree(field)
    vals = field.values.tolist()
    finite = []
    for ev in tree.events:
        birth = vals[ev.dying_min]
        finite.append(
            PersistencePair(
                min_vertex=ev.dying_min,
                saddle_vertex=ev.saddle,
                birth=birth,
                death=ev.level,
                value=ev.level - birth,
            )
        )
    essential = []
    if tree.minima:
        rank = field.total_order()[1]
        m0 = min(tree.minima, key=rank.__getitem__)
        essential.append(
            PersistencePair(
                min_vertex=m0, saddle_vertex=None, birth=vals[m0], death=None, value=INF
            )
        )
    return _sorted_pairs(finite, essential)


def pair_by_dynamics(field: ScalarField) -> list:
    """Flooding computation of the same pairs, written independently.

    Raise the water level vertex by vertex; each local minimum starts a lake.
    When lakes meet at a vertex of level ``lam``, every younger lake dies
    there: its minimum is paired with the meeting vertex and receives
    dynamics ``lam - f(min)``.  The absolute minimum's lake never dies and is
    reported with dynamics ``inf``.

    Lakes are explicit member lists merged smallest-into-largest; no
    union-find forest is involved.
    """
    vals = field.values.tolist()
    rank = field.total_order()[1].tolist()
    nbrs = field.neighbor_lists()

    lake_of = [-1] * field.n_vertices
    lake_min: list = []  # lake id -> its minimum vertex
    lake_members: list = []  # lake id -> member vertices
    finite = []

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
                finite.append(
                    PersistencePair(
                        min_vertex=m,
                        saddle_vertex=v,
                        birth=birth,
                        death=level,
                        value=level - birth,
                    )
                )
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

    essential = []
    alive = set(lake_of)
    if alive:
        lid = alive.pop()
        m0 = lake_min[lid]
        essential.append(
            PersistencePair(
                min_vertex=m0, saddle_vertex=None, birth=vals[m0], death=None, value=INF
            )
        )
    return _sorted_pairs(finite, essential)


def pair_1d_algorithm1(field: ScalarField, xmax: int) -> int | None:
    """Pair one 1D local maximum with a minimum via its sublevel component.

    Walk the component of ``[f <= f(xmax)]`` (total-order comparison) around
    ``xmax`` and take the representative (least vertex) of each side; the
    paired minimum is the later of the two in the total order.  A side is
    treated as an unbounded branch when the component reaches the grid border
    there and that border vertex is the least of the whole component, i.e. the
    window cut off an ongoing descent; the opposite representative is then
    returned alone.  A maximum sitting on the border, or a component unbounded
    on both sides, pairs with nothing and yields ``None``.
    """
    if field.ndim != 1:
        raise UsageError(f"pair_1d_algorithm1 needs a 1D field, got shape {field.shape}")
    xmax = field.check_vertex(xmax)
    rank = field.total_order()[1]
    n = field.n_vertices
    kmax = rank[xmax]
    for u in field.neighbor_lists()[xmax]:
        if not rank[u] < kmax:
            raise UsageError(f"vertex {xmax} is not a local maximum of the field")
    if xmax == 0 or xmax == n - 1:
        return None

    lo = xmax
    while lo > 0 and rank[lo - 1] < kmax:
        lo -= 1
    hi = xmax
    while hi < n - 1 and rank[hi + 1] < kmax:
        hi += 1

    least = min(range(lo, hi + 1), key=rank.__getitem__)
    left_unbounded = lo == 0 and least == lo
    right_unbounded = hi == n - 1 and least == hi

    rep_left = min(range(lo, xmax), key=rank.__getitem__)
    rep_right = min(range(xmax + 1, hi + 1), key=rank.__getitem__)

    if left_unbounded and right_unbounded:
        return None
    if left_unbounded:
        return rep_right
    if right_unbounded:
        return rep_left
    return max((rep_left, rep_right), key=rank.__getitem__)


def persistence_diagram(pairs, essential_death: float | None = None) -> list:
    """(birth, death) points of the finite pairs.

    The essential pair is omitted unless ``essential_death`` supplies a
    sentinel death level (typically the field maximum).
    """
    points = []
    for p in pairs:
        if p.is_essential:
            if essential_death is not None:
                points.append((p.birth, float(essential_death)))
        else:
            points.append((p.birth, p.death))
    return points


def pairs_to_json(pairs) -> list:
    """JSON-ready list of pair objects in the documented wire format."""
    out = []
    for p in pairs:
        obj = {"min_index": p.min_vertex, "birth": p.birth}
        if p.is_essential:
            obj["value"] = "inf"
        else:
            obj["saddle_index"] = p.saddle_vertex
            obj["death"] = p.death
            obj["value"] = p.value
        out.append(obj)
    return out


def pairing_signature(pairs) -> set:
    """Hashable summary used to compare two pairings: (min, saddle, value)."""
    return {(p.min_vertex, p.saddle_vertex, p.value) for p in pairs}
