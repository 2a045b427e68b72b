"""Checks on request outputs, made from outside the program.

Every output is parsed by the benchmark's own readers (JSON strictly: NaN and
Infinity are rejected) and compared with facts the benchmark computed from
the input itself, and with the other commands' outputs on the same field:

* ``pairs``: one pair per local minimum of the input, exactly one essential
  pair at the global minimum, ``value == death - birth`` bit for bit;
* ``curve``: ``counts[0]`` is the number of pairs (and of minima), the
  breakpoints are the distinct finite pair values;
* ``segment``: ``region_count`` equals the curve's count at ``t``, and the
  filtered values are never below the input;
* ``saliency`` (edge list or doubled field): the maximum equals the largest
  finite pair value;
* ``filter``: never lowers a value and keeps the global minimum;
* ``watershed``: every label is a minimum that labels itself;
* ``verify``: all fields tested, ``pairings_identical`` true.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class CheckError(Exception):
    pass


def _reject_constant(name):
    raise CheckError(f"non-standard JSON constant {name}")


def load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="ascii"), parse_constant=_reject_constant)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckError(f"output is not valid JSON: {exc}") from None


def load_field(path: Path) -> tuple:
    """``(shape, flat float64 values)`` of a csv-1d, pgm-2d or field-nd file."""
    tokens = path.read_text(encoding="ascii").split()
    try:
        if tokens[:1] == ["FIELD"]:
            ndim = int(tokens[1])
            shape = tuple(int(t) for t in tokens[2:2 + ndim])
            body = tokens[2 + ndim:]
        elif tokens[:1] == ["P2"]:
            width, height = int(tokens[1]), int(tokens[2])
            shape, body = (height, width), tokens[4:]
        else:
            shape, body = (len(tokens),), tokens
        values = np.fromiter(map(float, body), dtype=np.float64, count=len(body))
    except (IndexError, ValueError) as exc:
        raise CheckError(f"unreadable field output: {exc}") from None
    if values.size != int(np.prod(shape)):
        raise CheckError(f"field output has {values.size} values for shape {shape}")
    return shape, values


def _expect(cond, message):
    if not cond:
        raise CheckError(message)


def count_at(curve: dict, t: float) -> int:
    """Curve value at t: minima whose dynamics is at least t."""
    return curve["counts"][sum(1 for b in curve["breakpoints"] if b < t)]


def _check_pairs(pairs, fld):
    vals = fld.values
    minima = fld.facts["minima"]
    _expect(isinstance(pairs, list), "pairs output is not a list")
    _expect(len(pairs) == minima.size, f"{len(pairs)} pairs for {minima.size} minima")
    essential = [p for p in pairs if p.get("value") == "inf"]
    _expect(len(essential) == 1, f"{len(essential)} essential pairs")
    _expect(essential[0]["min_index"] == fld.facts["argmin"], "essential pair not at the global minimum")
    _expect(sorted(p["min_index"] for p in pairs) == minima.tolist(), "paired vertices are not the minima")
    finite = []
    for p in pairs:
        _expect(p["birth"] == float(vals[p["min_index"]]), f"birth of {p['min_index']} differs from input")
        if p is essential[0]:
            continue
        _expect(p["death"] == float(vals[p["saddle_index"]]), f"death of {p['min_index']} differs from input")
        _expect(p["value"] == p["death"] - p["birth"], f"value of {p['min_index']} is not death - birth")
        finite.append(p["value"])
    return finite


def _check_curve(curve, fld, finite):
    bps, counts = curve["breakpoints"], curve["counts"]
    _expect(len(counts) == len(bps) + 1, "curve has not one count more than breakpoints")
    _expect(counts[0] == fld.facts["minima"].size, f"curve counts[0]={counts[0]}, minima={fld.facts['minima'].size}")
    _expect(all(a < b for a, b in zip(bps, bps[1:])), "breakpoints not strictly ascending")
    _expect(all(a >= b for a, b in zip(counts, counts[1:])), "counts increase")
    _expect(counts[-1] == 1, f"{counts[-1]} minima survive every threshold")
    if finite is not None:
        _expect(bps == sorted(set(finite)), "breakpoints are not the distinct finite pair values")


def _check_filtered(values, fld, what):
    _expect(values.size == fld.n, f"{what} has {values.size} values for {fld.n} vertices")
    _expect(bool(np.all(values >= fld.values)), f"{what} lowers a value")
    _expect(values.min() == fld.values.min(), f"{what} changes the global minimum")


def check_field(fld, outputs: dict) -> dict:
    """Failure message per request id of one field's outputs (ids that pass are absent).

    ``outputs`` maps request id to ``(request, output path)``.
    """
    failures = {}
    parsed = {}  # command key -> (request id, parsed output)

    def attempt(rid, fn, *args):
        try:
            return fn(*args)
        except CheckError as exc:
            failures[rid] = str(exc)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            failures[rid] = f"malformed output ({type(exc).__name__}: {exc})"
        return None

    for rid, (req, path) in outputs.items():
        key = req.cmd + ("-field" if "--as-field" in req.argv else "")
        if not path.exists():
            failures[rid] = "no output written"
            continue
        loader = load_field if key in ("saliency-field", "filter", "watershed") else load_json
        obj = attempt(rid, loader, path)
        if rid not in failures:
            parsed[key] = (rid, obj)

    def check(key, fn):
        if key in parsed:
            attempt(parsed[key][0], fn, parsed[key][1])

    finite = None
    if "pairs" in parsed:
        finite = attempt(parsed["pairs"][0], _check_pairs, parsed["pairs"][1], fld)
    check("curve", lambda c: _check_curve(c, fld, finite))
    curve = parsed["curve"][1] if "curve" in parsed and parsed["curve"][0] not in failures else None
    if finite is not None:
        top = max(finite, default=0.0)
    elif curve is not None:
        top = curve["breakpoints"][-1] if curve["breakpoints"] else 0.0
    else:
        top = None

    def segment(obj):
        _expect(len(obj["labels"]) == fld.n, "segment labels do not cover the field")
        _check_filtered(np.array(obj["filtered"], dtype=np.float64), fld, "segment")
        if curve is not None:
            want = count_at(curve, obj["threshold"])
            _expect(obj["region_count"] == want, f"region_count {obj['region_count']}, curve at t says {want}")

    def saliency(obj):
        _expect(len(obj) == fld.facts["edges"], f"{len(obj)} saliency edges, grid has {fld.facts['edges']}")
        values = list(obj.values())
        _expect(min(values) >= 0.0, "negative saliency")
        if top is not None:
            _expect(max(values) == top, f"saliency max {max(values)}, largest finite pair value {top}")

    def saliency_field(shape_values):
        shape, values = shape_values
        _expect(shape == tuple(2 * e - 1 for e in fld.shape), f"doubled field has shape {shape}")
        _expect(np.count_nonzero(values) <= fld.facts["edges"], "more nonzero saliency sites than edges")
        if top is not None:
            _expect(values.max() == top, f"saliency field max {values.max()}, largest finite pair value {top}")

    def watershed(shape_values):
        _, values = shape_values
        _expect(values.size == fld.n, "labels do not cover the field")
        labels = values.astype(np.int64)
        basins = np.unique(labels)
        minima = fld.facts["minima"]
        _expect(bool(np.all(np.isin(basins, minima))), "a label is not a minimum")
        _expect(bool(np.all(labels[basins] == basins)), "a minimum is not in its own basin")
        if not fld.facts["ties"]:
            _expect(basins.size == minima.size, f"{basins.size} basins for {minima.size} minima")

    check("segment", segment)
    check("saliency", saliency)
    check("saliency-field", saliency_field)
    check("filter", lambda sv: _check_filtered(sv[1], fld, "filter"))
    check("watershed", watershed)
    return failures


def check_verify(req, path: Path):
    """Failure message of a verify request, or None."""
    try:
        _expect(path.exists(), "no output written")
        report = load_json(path)
        _expect(report["fields_tested"] == req.params["trials"],
                f"{report['fields_tested']} fields tested, {req.params['trials']} asked")
        _expect(report["pairings_identical"] is True, "pairings_identical is not true")
        _expect(report["first_counterexample"] is None, "a counterexample is reported")
    except (CheckError, KeyError, TypeError) as exc:
        return str(exc)
    return None
