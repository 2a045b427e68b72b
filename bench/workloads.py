"""Seeded inputs and request lists for the dynpers benchmark workloads.

Every input is built here with numpy from the benchmark seed and written as a
``field-nd`` or ``csv-1d`` file; the program only ever receives those files
(``verify`` is the exception: its input is a seed range derived from the
benchmark seed).  The same seed always gives the same files and requests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

# Threshold of the dense and smooth segment/filter requests.  A pair value
# equal to it would make the program refuse the request; with continuous
# random values that never happens.
T_DENSE = 0.1234567

WORKLOADS = ("dense-2d", "smooth-2d", "nested-comb", "verify-oracle")

# Input sizes.  A pass over a workload's request list takes about 3.5 s on the
# seed code, so that a 55-second run holds about fifteen passes and the
# fastest repetition of each request shrugs off slow spells of the host.  For scale, one pass of the
# dense mix at 256x256 takes about 22 s, one of the smooth mix at 512x512 about
# 18 s.  Every 2D field has at most 65536 vertices, so watershed labels (vertex
# ids) still fit pgm-2d's maxval; larger fields hit that known defect.
DENSE_SIDES = (48, 80, 120)
DENSE_COMMANDS = (
    ("segment", "--t", repr(T_DENSE)),
    ("saliency",),
    ("curve",),
    ("pairs", "--method", "both"),
    ("filter", "--t", repr(T_DENSE)),
    ("watershed",),
)
SMOOTH_SIDES = (88, 176)
SMOOTH_BUMPS = 8
SMOOTH_COMMANDS = DENSE_COMMANDS + (("saliency", "--as-field"),)
COMB_LENGTHS = (700, 1400, 2100)
VERIFY_2D_SIDES = (32, 44, 64)
VERIFY_3D_SIDES = (12, 14, 16)
VERIFY_TRIALS = 1

# Tail percentile of request latency per workload, fixed so that runs with
# more or fewer passes, and parent and change, are compared at the same
# percentile: the highest one that leaves at least 10 requests beyond it in a
# 25-second run of the seed code (longer runs leave more).
TAIL_PERCENTILE = {"dense-2d": 90, "smooth-2d": 80, "nested-comb": 80, "verify-oracle": 80}


@dataclass
class Field:
    """One input file: its values, grid and the facts the checks rely on."""

    name: str
    shape: tuple
    connectivity: str
    values: np.ndarray
    fmt: str
    family: str
    facts: dict = dc_field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def filename(self) -> str:
        return self.name + (".csv" if self.fmt == "csv-1d" else ".fld")


@dataclass
class Request:
    """One CLI request: ``dynpers <argv> --output <file>``."""

    rid: int  # index in the workload's request list
    cmd: str
    argv: list
    field: Field | None
    vertices: int  # input vertices processed (verify: trials x vertices per field)
    size: int  # vertices per field, for scaling exponents
    family: str
    params: dict = dc_field(default_factory=dict)

    @property
    def label(self) -> str:
        where = self.field.name if self.field is not None else self.params["shape"]
        flag = " --as-field" if "--as-field" in self.argv else ""
        return f"{self.cmd}{flag} @ {where}"


def positive_offsets(shape, connectivity):
    """Each grid edge direction once, as (src slices, dst slices).

    ``dst`` vertices are the neighbors of ``src`` vertices at a positive
    linear offset, so every undirected edge appears exactly once.
    """
    ndim = len(shape)
    if connectivity == "axis":
        offsets = [tuple(int(i == k) for i in range(ndim)) for k in range(ndim)]
    else:
        offsets = [
            off
            for off in itertools.product((-1, 0, 1), repeat=ndim)
            if any(off) and next(d for d in off if d) > 0
        ]
    out = []
    for off in offsets:
        src = tuple(slice(max(0, -d), e - max(0, d)) for d, e in zip(off, shape))
        dst = tuple(slice(max(0, d), e - max(0, -d)) for d, e in zip(off, shape))
        out.append((src, dst))
    return out


def field_facts(shape, connectivity, values) -> dict:
    """Reference facts computed independently of the program.

    Minima use the package's documented total order ``(value, linear index)``.
    """
    grid = values.reshape(shape)
    is_min = np.ones(shape, dtype=bool)
    edges = 0
    ties = False
    for src, dst in positive_offsets(shape, connectivity):
        a, b = grid[src], grid[dst]
        is_min[src] &= a <= b  # src has the smaller index, so it wins ties
        is_min[dst] &= b < a
        edges += a.size
        ties = ties or bool(np.any(a == b))
    minima = np.flatnonzero(is_min.reshape(-1))
    return {
        "minima": minima,
        "edges": edges,
        "ties": ties,
        "argmin": int(np.argmin(values)),
    }


def write_input(path: Path, fld: Field) -> None:
    body = "".join(repr(float(x)) + "\n" for x in fld.values)
    if fld.fmt == "field-nd":
        body = f"FIELD {len(fld.shape)} {' '.join(map(str, fld.shape))}\n" + body
    path.write_text(body, encoding="ascii")


def _gaussian_mixture(rng, side: int) -> np.ndarray:
    y, x = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float), indexing="ij")
    values = np.zeros((side, side))
    for k in range(SMOOTH_BUMPS):
        cy, cx = rng.uniform(0.0, side - 1.0, 2)
        width = rng.uniform(side / 8.0, side / 3.0)
        amp = rng.uniform(0.25, 1.0)
        sign = -1.0 if k % 2 == 0 else 1.0
        values += sign * amp * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2.0 * width * width))
    return values.reshape(-1)


def _nested_comb(rng, n: int) -> np.ndarray:
    """``v[2i] = -i``, ``v[2i+1] = 0.5 + 0.001 i`` plus jitter below 0.0005 on the maxima.

    The jitter is smaller than the 0.001 step between maxima, so every basin
    stays nested inside the next one.
    """
    values = np.empty(n)
    evens = np.arange((n + 1) // 2)
    odds = np.arange(n // 2)
    values[0::2] = -evens.astype(float)
    values[1::2] = 0.5 + 0.001 * odds + rng.uniform(0.0, 0.0005, odds.size)
    return values


def _new_field(name, shape, connectivity, values, fmt, family) -> Field:
    fld = Field(name, tuple(shape), connectivity, values, fmt, family)
    fld.facts = field_facts(fld.shape, connectivity, values)
    return fld


def build(workload: str, seed: int) -> tuple:
    """``(fields, requests)`` of one workload; deterministic in ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    fields = []
    plan = []  # (field or None, argv prefix, command tuple, params)

    if workload == "dense-2d":
        for side in DENSE_SIDES:
            fld = _new_field(f"dense-{side}", (side, side), "axis",
                             rng.uniform(0.0, 1.0, side * side), "field-nd", "2d-axis")
            fields.append(fld)
            plan += [(fld, [], cmd, {}) for cmd in DENSE_COMMANDS]
    elif workload == "smooth-2d":
        for side in SMOOTH_SIDES:
            fld = _new_field(f"smooth-{side}", (side, side), "axis",
                             _gaussian_mixture(rng, side), "field-nd", "2d-axis")
            fields.append(fld)
            plan += [(fld, [], cmd, {}) for cmd in SMOOTH_COMMANDS]
    elif workload == "nested-comb":
        for n in COMB_LENGTHS:
            fld = _new_field(f"comb-{n}", (n,), "axis", _nested_comb(rng, n), "csv-1d", "1d")
            fields.append(fld)
            # Above the value range, so every finite pair is cancelled.
            t = repr(float(fld.values.max() - fld.values.min()) + 1.0)
            for cmd in (("filter", "--t", t), ("segment", "--t", t), ("saliency",), ("curve",)):
                plan.append((fld, [], cmd, {}))
    else:  # verify-oracle
        shapes = [((s, s), "axis", "2d-axis") for s in VERIFY_2D_SIDES]
        shapes += [((s, s, s), "full", "3d-full") for s in VERIFY_3D_SIDES]
        for k, (shape, conn, family) in enumerate(shapes):
            text = "x".join(map(str, shape))
            prefix = ["--connectivity", conn]
            verify_seed = seed * 1000 + 10 * k
            cmd = ("verify", "--kind", "uniform_random", "--trials", str(VERIFY_TRIALS),
                   "--shape", text, "--seed", str(verify_seed))
            params = {"shape": text, "size": int(np.prod(shape)), "family": family,
                      "trials": VERIFY_TRIALS, "seeds": [verify_seed, verify_seed + VERIFY_TRIALS - 1]}
            plan.append((None, prefix, cmd, params))
            fld = _new_field(f"uniform-{text}", shape, conn,
                             rng.uniform(0.0, 1.0, int(np.prod(shape))), "field-nd", family)
            fields.append(fld)
            plan.append((fld, prefix, ("pairs", "--method", "both"), {}))

    requests = []
    for rid, (fld, prefix, cmd, params) in enumerate(plan):
        argv = list(prefix) + list(cmd)
        if fld is not None:
            argv.append(fld.filename)
            size, family, vertices = fld.n, fld.family, fld.n
        else:
            size, family = params["size"], params["family"]
            vertices = params["trials"] * size
        requests.append(Request(rid, cmd[0], argv, fld, vertices, size, family, params))
    return fields, requests
