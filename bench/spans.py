"""Spans around calls into dynpers' public functions, recorded from outside.

Each traced function is replaced, wherever a dynpers module looks it up, by a
wrapper that records a span: name, start, end, parent span and request id.
Self time is the span's duration minus the time its child spans cover.  The
wrappers also derive per-layer counts from arguments and results; that
bookkeeping is charged to neither the span nor its parent.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time
import weakref

import numpy as np

from workloads import positive_offsets

# Traced public functions per module, named "<module>.<function>".
TRACED = {
    "formats": ("read_field", "write_field"),
    "grid": ("local_minima", "filtration_order"),
    "pairing": ("build_merge_tree", "pair_by_persistence", "pair_by_dynamics", "pairs_to_json"),
    "pathdyn": ("dynamics_oracle",),
    "equivalence": ("generate", "verify_equivalence", "sweep"),
    "morphology": (
        "granulometric_curve",
        "filter_dynamics",
        "saliency",
        "minimal_regions",
        "watershed_from_markers",
        "saliency_to_field",
        "segment_pipeline",
    ),
}
MODULES = ("cli", "formats", "grid", "pairing", "pathdyn", "equivalence", "morphology")
ROOT = "cli"  # name of the span around each dynpers.cli.main request


class _Frame:
    __slots__ = ("sid", "covered", "results")

    def __init__(self, sid):
        self.sid = sid
        self.covered = 0.0  # child spans plus their bookkeeping
        self.results = {}  # latest result of each child span, by name


class Tracer:
    """In-memory span recorder; one per process, installed once."""

    def __init__(self):
        self.request = None
        self.spans = []  # (sid, parent sid, request, name, start, end, self seconds)
        self.self_time = collections.defaultdict(float)  # (request, name) -> seconds
        self.counts = collections.defaultdict(int)  # (request, name) -> count
        self._stack = []
        self._next_sid = 0
        self._graphs = weakref.WeakSet()  # fields whose neighbor graph was counted

    def wrap(self, name, fn, counter=None):
        """``fn`` recording a span named ``name``; ``counter`` derives counts."""
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(self._next_sid)
            self._next_sid += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._record(frame, parent, name, start, end)
                if parent is not None:
                    parent.covered += end - start
            if counter is not None:
                counter(self, args, result, frame)
            if parent is not None:
                parent.results[name] = result
                parent.covered += clock() - end
            return result

        return traced

    def _record(self, frame, parent, name, start, end):
        own = (end - start) - frame.covered
        self.spans.append(
            (frame.sid, None if parent is None else parent.sid, self.request, name, start, end, own)
        )
        self.self_time[(self.request, name)] += own

    def count(self, name, amount):
        self.counts[(self.request, name)] += int(amount)

    def install(self):
        """Replace traced functions in every dynpers module that refers to them."""
        mods = {m: importlib.import_module(f"dynpers.{m}") for m in MODULES}
        mods["dynpers"] = importlib.import_module("dynpers")
        for mod_name, names in TRACED.items():
            for fn_name in names:
                original = getattr(mods[mod_name], fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", original, _COUNTERS.get(fn_name))
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        field_cls = mods["grid"].ScalarField
        field_cls.__init__ = self.wrap("grid.ScalarField", field_cls.__init__)
        field_cls.neighbor_lists = self.wrap(
            "grid.neighbor_lists", field_cls.neighbor_lists, _count_graph
        )
        return self.wrap(ROOT, mods["cli"].main)

    def span_dicts(self):
        keys = ("sid", "parent", "request", "name", "start", "end", "self")
        return [dict(zip(keys, s)) for s in self.spans]


def _count_graph(tracer, args, lists, frame):
    field = args[0]
    if field not in tracer._graphs:
        tracer._graphs.add(field)
        tracer.count("grid.vertices", field.n_vertices)
        tracer.count("grid.edges", sum(map(len, lists)) // 2)


def _count_read(tracer, args, result, frame):
    if isinstance(args[0], str):
        tracer.count("formats.bytes_in", len(args[0]))


def _count_write(tracer, args, text, frame):
    tracer.count("formats.bytes_out", len(text))


def _count_merge_tree(tracer, args, tree, frame):
    per_saddle = collections.Counter(ev.saddle for ev in tree.events)
    tracer.count("pairing.minima", len(tree.minima))
    tracer.count("pairing.merge_events", len(tree.events))
    tracer.count("pairing.multiway_saddles", sum(1 for k in per_saddle.values() if k > 1))


def _count_oracle(tracer, args, result, frame):
    tracer.count("pathdyn.dynamics_oracle.calls", 1)


def _count_sweep(tracer, args, report, frame):
    tracer.count("equivalence.fields", report.fields_tested)


def _count_filter(tracer, args, filtered, frame):
    field, t = args[0], float(args[1])
    pairs = frame.results.get("pairing.pair_by_persistence", ())
    tracer.count("morphology.cancelled_pairs",
                 sum(1 for p in pairs if not p.is_essential and p.value < t))
    tracer.count("morphology.raised_vertices", np.count_nonzero(filtered.values > field.values))


def _count_saliency(tracer, args, sal, frame):
    labels = frame.results["morphology.watershed_from_markers"]
    grid = np.asarray(labels.labels, dtype=np.int64).reshape(labels.shape)
    keys = []
    for src, dst in positive_offsets(labels.shape, labels.connectivity.value):
        a, b = grid[src].reshape(-1), grid[dst].reshape(-1)
        cut = a != b
        lo, hi = np.minimum(a[cut], b[cut]), np.maximum(a[cut], b[cut])
        keys.append(lo * grid.size + hi)
    tracer.count("morphology.basin_pairs", np.unique(np.concatenate(keys)).size if keys else 0)


_COUNTERS = {
    "read_field": _count_read,
    "write_field": _count_write,
    "build_merge_tree": _count_merge_tree,
    "dynamics_oracle": _count_oracle,
    "sweep": _count_sweep,
    "filter_dynamics": _count_filter,
    "saliency": _count_saliency,
}
