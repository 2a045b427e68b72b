"""Minimum / 1-saddle pairing by sublevel persistence and by flooding dynamics.

Both computations consume the same sublevel filtration but are deliberately
separate code paths: :func:`pair_by_persistence` runs union-find over the
growing sublevel sets and applies the elder rule at every merge, while
:func:`pair_by_dynamics` tells the flooding story with explicit lakes and
member relabeling.  Their agreement on every field is the central property
this package exists to check, so neither calls the other: both collect their
finite pairs as columns and share only the pair order, :func:`_sorted_pairs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import UsageError
from .grid import ScalarField, _descent_basins, _geometry, _kruskal, _neighbor_table

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


def _tuple_view(column: str) -> cached_property:
    """A cached property: the numpy column ``column`` as a tuple of Python scalars."""
    return cached_property(lambda self: tuple(getattr(self, column).tolist()))


@dataclass(frozen=True, eq=False)
class MergeTree:
    """Merge events in filtration order plus the minima that seeded components.

    The events are stored as read-only numpy columns, one entry per event:
    ``_saddles``, ``_survivor_mins``, ``_dying_mins`` and ``_levels`` hold the
    fields of :class:`MergeEvent`, ``_gates`` the gates, and ``_minima`` the
    minima in total order, so ``minima[0]`` is the essential one.  The public
    ``saddles``, ``survivor_mins``, ``dying_mins``, ``levels``, ``gates`` and
    ``minima`` are tuples of Python scalars built from those columns on first
    use, and :attr:`events` builds the :class:`MergeEvent` objects.

    On a connected grid ``len(events) == len(minima) - 1``.  A vertex whose
    insertion joins k >= 2 components contributes k - 1 events at its level,
    each joining the current survivor with the next dying component, the dying
    minima taken in descending total order.

    ``gates[i]`` is the gate of event ``i``: the total-order-least lower
    neighbor of the saddle on the elder side, which is the survivor's
    component plus every component joined at that saddle whose minimum
    precedes the dying one.  Water of the dying component that overflows the
    saddle runs down to the gate.
    """

    _saddles: np.ndarray
    _survivor_mins: np.ndarray
    _dying_mins: np.ndarray
    _levels: np.ndarray
    _gates: np.ndarray
    _minima: np.ndarray

    def __post_init__(self):
        for column in (self._saddles, self._survivor_mins, self._dying_mins, self._levels,
                       self._gates, self._minima):
            column.flags.writeable = False

    saddles = _tuple_view("_saddles")
    survivor_mins = _tuple_view("_survivor_mins")
    dying_mins = _tuple_view("_dying_mins")
    levels = _tuple_view("_levels")
    gates = _tuple_view("_gates")
    minima = _tuple_view("_minima")

    @cached_property
    def events(self) -> tuple:
        return tuple(
            map(MergeEvent, self.saddles, self.survivor_mins, self.dying_mins, self.levels)
        )


def build_merge_tree(field: ScalarField) -> MergeTree:
    """Merge tree of the sublevel filtration, from its steepest-descent basins.

    The union-find sweep of the sublevel filtration is Kruskal's algorithm on
    the graph of steepest-descent basins (the drop-of-water principle): a
    vertex's steepest descent never rises above it, so when ``w`` enters the
    sublevel set each lower neighbor of ``w`` is already in the component of
    its basin's minimum.  Weigh each basin-graph edge by the ranks of its
    ends, ``max * n + min``: the edges that ``w`` adds are those from ``w``'s
    basin to its lower neighbors in other basins, taken in ascending rank of
    the neighbor.  The weights are unique, so the minimum spanning forest
    (:func:`grid._boruvka`) is the set of edges Kruskal's algorithm keeps,
    and :func:`grid._kruskal` replays its k - 1 edges in weight order over
    compact basin ids (the minima's ages), giving per edge the roots of the
    two components it joins, a root always being its component's eldest.

    The forest edges at ``w`` form a star from the component of ``w``'s own
    basin, which holds ``w``'s steepest step (its least lower neighbor), to
    one edge per other component that ``w`` touches, and by the cycle
    property that edge's lower end is the component's least lower neighbor
    of ``w``.  So each saddle's roots and their least lower neighbors are
    known, and numpy finishes its events: the least root survives, the
    others die youngest first, and each gate is the least of those lower
    neighbors over the roots older than the dying one.
    """
    order, rank = field.total_order()
    minima, basin, step = _descent_basins(field)
    k, n = minima.size, field.n_vertices
    # per forest edge: the ranks of its ends, and the roots on the saddle's side and on the other
    saddle, low, upper, lower = _kruskal(rank, order, basin, _geometry(field)[1], k)

    heads = np.flatnonzero(np.diff(saddle, prepend=-1))  # each saddle's first forest edge
    # One row per component that a saddle joins: the saddle's rank, the
    # component's root and its least lower neighbor of the saddle (a rank).
    at = np.concatenate((saddle[heads], saddle))
    root = np.concatenate((upper[heads], lower))
    least = np.concatenate((step[order[saddle[heads]]], low))
    rows = np.argsort(at * k - root)  # by saddle, then roots descending: the survivor last
    at, root, least = at[rows], root[rows], least[rows]
    shift = at * n  # keeps each saddle's running minimum to its own rows
    gate = np.minimum.accumulate((least + shift)[::-1])[::-1] - shift
    last = np.ones(at.size, dtype=bool)
    last[:-1] = at[:-1] != at[1:]
    dies = np.flatnonzero(~last)
    saddles = order[at[dies]]
    # a dying row's count of last rows before it is its saddle's index among them
    return MergeTree(
        _saddles=saddles,
        _survivor_mins=minima[root[last][np.cumsum(last)[dies]]],
        _dying_mins=minima[root[dies]],
        _levels=field.values[saddles],
        _gates=order[gate[dies + 1]],
        _minima=minima,
    )


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


# The wire format of a finite pair, keys in order; the essential pair has only
# ``min_index``, ``birth`` and ``value``, the string ``"inf"``.
PAIR_KEYS = ("min_index", "birth", "saddle_index", "death", "value")


def _essential_json(min_vertex: int, birth: float) -> dict:
    return {"min_index": min_vertex, "birth": birth, "value": "inf"}


@dataclass(frozen=True, eq=False)
class _PairColumns:
    """A pairing as columns, one entry per finite pair, sorted ascending by
    ``(value, birth, minimum)``.

    ``mins``, ``saddles``, ``births``, ``deaths`` and ``values`` hold the
    fields of :class:`PersistencePair`; ``essential`` is the essential pair's
    ``(minimum, birth)``, or ``None`` when there is none.  The columns are
    read-only numpy arrays, and :meth:`to_list` builds the pair objects,
    essential pair last.
    """

    mins: np.ndarray
    saddles: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    values: np.ndarray
    essential: tuple | None

    def __post_init__(self):
        for column in (self.mins, self.saddles, self.births, self.deaths, self.values):
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.mins.size + (self.essential is not None)

    def to_list(self) -> list:
        columns = (self.mins, self.saddles, self.births, self.deaths, self.values)
        pairs = list(map(PersistencePair, *(c.tolist() for c in columns)))
        if self.essential is not None:
            m0, birth = self.essential
            pairs.append(PersistencePair(m0, None, birth, None, INF))
        return pairs

    def json_records(self) -> tuple:
        """``(keys, columns, rest)``: the finite pairs' JSON objects as columns
        in :data:`PAIR_KEYS` order, then the essential pair's object, if any."""
        columns = (self.mins, self.births, self.saddles, self.deaths, self.values)
        rest = [] if self.essential is None else [_essential_json(*self.essential)]
        return PAIR_KEYS, columns, rest


def _sorted_pairs(mins, saddles, births, deaths, values, essential) -> _PairColumns:
    """The one pair order both routes use: ascending by ``(value, birth, minimum)``."""
    order = np.lexsort((mins, births, values))
    return _PairColumns(
        mins[order], saddles[order], births[order], deaths[order], values[order], essential
    )


def _persistence_columns(field: ScalarField) -> _PairColumns:
    """The pairs of :func:`pair_by_persistence` as columns, built from the
    merge tree's event columns without a per-pair object."""
    tree = build_merge_tree(field)
    mins, deaths = tree._dying_mins, tree._levels
    births = field.values[mins]
    essential = None
    if tree._minima.size:
        m0 = tree._minima.item(0)
        essential = (m0, field.values.item(m0))
    return _sorted_pairs(mins, tree._saddles, births, deaths, deaths - births, essential)


def pair_by_persistence(field: ScalarField) -> list:
    """One pair per merge event (elder rule) plus the essential pair.

    Each finite pair is ``(dying minimum, merge saddle)`` with
    ``value = f(saddle) - f(minimum)``; pairs come sorted ascending by
    ``(value, birth, minimum)``, essential pair last.
    """
    return _persistence_columns(field).to_list()


def _lower_rows(field: ScalarField) -> tuple:
    """``(lower, counts)``: per rank ``r``, ``counts[r]`` ranks of neighbors
    that precede ``r`` in the total order, the next run of the flat list
    ``lower``.

    The runs are pruned: a lower neighbor ``u`` of ``r`` is dropped when
    another lower neighbor ``w`` of ``r`` precedes ``u`` and is adjacent to
    it.  Both come before ``r``, and the later of the two joined the other's
    lake when it was flooded, so they share a lake when ``r`` is reached; the
    least lower neighbor is always kept.  Two offsets are adjacent when their
    difference is itself an offset of the grid, which never holds under axis
    connectivity, so there the runs hold every lower neighbor.
    """
    order, rank = field.total_order()
    n = field.n_vertices
    slices = _geometry(field)[0]
    offsets = np.array([off for off, _, _ in slices], dtype=np.intp).reshape(-1, field.ndim)
    moves = offsets[:, offsets.any(axis=0)]
    # balanced base 5 over the axes that move gives every vector of digits
    # -2..2 its own code, and codes subtract as the vectors do
    code = moves @ 5 ** np.arange(moves.shape[1])
    adjacent = np.isin(code[:, None] - code, code)
    # outside the box reads n, which precedes no rank; the least type that holds n
    rank = rank.astype(np.min_scalar_type(n))
    nrank = _neighbor_table(rank.reshape(field.shape), slices, n)[order]
    keep = nrank < np.arange(n, dtype=rank.dtype)[:, None]
    for j, row in enumerate(adjacent):
        if row.any():
            keep[:, j] &= nrank[:, j] < nrank[:, row].min(axis=1)
    counts = keep.sum(axis=1)
    # an integer gather: a boolean mask would branch on every entry
    lower = nrank.reshape(-1)[np.flatnonzero(keep)]
    del nrank, keep  # the table goes before its lower entries become Python ints
    return lower.tolist(), counts.tolist()


def _dynamics_columns(field: ScalarField) -> _PairColumns:
    """The pairs of :func:`pair_by_dynamics` as columns; the flooding itself.

    The flood runs in rank space: lakes hold ranks, and a lake's minimum is
    its least rank.  Ranks become vertex ids only in the columns.
    """
    lower, counts = _lower_rows(field)
    lake_of = [-1] * field.n_vertices
    lake_min: list = []  # lake id -> rank of its minimum
    lake_members: list = []  # lake id -> member ranks
    mins, saddles = [], []  # ranks of the finite pairs' minima and meeting vertices

    rows = iter(lower)
    take = rows.__next__
    for r, count in enumerate(counts):
        if count == 1:
            lid = lake_of[take()]
        elif count:
            row = islice(rows, count)
            lid = lake_of[next(row)]
            for u in row:
                if lake_of[u] != lid:  # a second lake: gather the row's lakes
                    ids = {lid, lake_of[u], *map(lake_of.__getitem__, row)}
                    elder = min(ids, key=lake_min.__getitem__)
                    keep = max(ids, key=lambda lid: len(lake_members[lid]))
                    for lid in ids:
                        if lid != elder:
                            mins.append(lake_min[lid])
                            saddles.append(r)
                        if lid != keep:
                            for v in lake_members[lid]:
                                lake_of[v] = keep
                            lake_members[keep].extend(lake_members[lid])
                            lake_members[lid] = []
                    lake_min[keep] = lake_min[elder]
                    lid = keep
                    break
        else:
            lake_of[r] = len(lake_min)
            lake_min.append(r)
            lake_members.append([r])
            continue
        lake_of[r] = lid
        lake_members[lid].append(r)

    order = field.total_order()[0]
    m0 = int(order[lake_min[lake_of[-1]]])  # the grid is connected: one lake survives
    mins = order[np.array(mins, dtype=np.intp)]
    saddles = order[np.array(saddles, dtype=np.intp)]
    births = field.values[mins]
    deaths = field.values[saddles]
    essential = (m0, field.values.item(m0))
    return _sorted_pairs(mins, saddles, births, deaths, deaths - births, essential)


def pair_by_dynamics(field: ScalarField) -> list:
    """Flooding computation of the same pairs, written independently.

    Raise the water level vertex by vertex; each local minimum starts a lake.
    When lakes meet at a vertex of level ``lam``, every younger lake dies
    there: its minimum is paired with the meeting vertex and receives
    dynamics ``lam - f(min)``.  The absolute minimum's lake never dies and is
    reported with dynamics ``inf``.

    Lakes are explicit member lists merged smallest-into-largest; no
    union-find forest is involved.  A vertex looks only at the lower
    neighbors that can still be in different lakes: a lower neighbor is
    skipped when another one before it is adjacent to it, because the later
    of the two joined the other's lake when it was flooded.  Under axis
    connectivity no two neighbors of a vertex are adjacent, so every lower
    neighbor is looked at.
    """
    return _dynamics_columns(field).to_list()


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
    """JSON-ready list of pair objects in the documented wire format
    (:data:`PAIR_KEYS`; the essential pair has ``"value": "inf"``)."""
    return [
        _essential_json(p.min_vertex, p.birth)
        if p.is_essential
        else dict(zip(PAIR_KEYS, (p.min_vertex, p.birth, p.saddle_vertex, p.death, p.value)))
        for p in pairs
    ]


def pairing_signature(pairs) -> set:
    """Hashable summary used to compare two pairings: (min, saddle, value)."""
    return {(p.min_vertex, p.saddle_vertex, p.value) for p in pairs}
