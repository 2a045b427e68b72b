"""Command-line interface: every library operation as a deterministic subcommand.

Structured results go out as JSON, fields in their plain text formats; ``-``
means stdin/stdout, so commands compose in pipes.  Exit codes: 0 success,
1 domain error (bad threshold, non-minimum vertex), 2 I/O or parse error,
3 pairing divergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DivergenceError, FormatError, UsageError
from .grid import Connectivity, ScalarField
from .formats import (
    FORMATS,
    _field_parts,
    _read_ascii,
    _sliced,
    _write_parts,
    parse_field,
    sniff_format,
)
from .pairing import _dynamics_columns, _persistence_columns
from .pathdyn import dynamics_oracle
from .equivalence import KINDS, GeneratorSpec, _divergent_minimum, generate, sweep
from .morphology import (
    _curve_columns,
    _curve_json,
    _segment_columns,
    filter_dynamics,
    saliency,
    saliency_to_field,
    watershed,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_DIVERGENCE = 3

_MAX_VERTICES = sys.maxsize // 8  # a float64 array's byte size must fit a signed size


def _parse_shape(text: str) -> tuple:
    try:
        shape = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise UsageError(f"bad shape {text!r}; expected forms like 256 or 32x32") from None
    if not shape or any(e < 1 for e in shape):
        raise UsageError(f"bad shape {text!r}; every extent must be >= 1")
    if math.prod(shape) > _MAX_VERTICES:
        raise UsageError(f"shape {text!r} has more vertices than a float64 array can hold")
    return shape


def _read_input(path: str, fmt: str | None, connectivity, invert: bool):
    try:
        text = _read_ascii(sys.stdin, "stdin") if path == "-" else _read_ascii(path, path)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    if fmt is None:
        fmt = sniff_format(text)
    field = parse_field(text, fmt, connectivity)
    if invert:
        field = ScalarField(field.shape, -field.values, field.connectivity)
    return field, fmt


def _emit(parts, path: str):
    """Write ``parts`` (:func:`formats._write_parts`) to ``path``, or to
    stdout for ``-``.  Callers build the parts, and so run every check,
    before this opens the output."""
    if path == "-" or path is None:
        _write_parts(parts, sys.stdout)
    else:
        with open(path, "w", encoding="ascii") as fh:
            _write_parts(parts, fh)


def _emit_json(obj, path: str):
    _emit(_json_parts(obj) + ["\n"], path)


def _emit_field(field: ScalarField, path: str, fmt: str, invert: bool = False):
    if invert:
        field = ScalarField(field.shape, -field.values, field.connectivity)
    _emit(_field_parts(field, fmt), path)


class _Records:
    """A JSON list of objects with one key order, given as equal-length int
    or float columns (numpy arrays) under ``keys``, followed by the plain
    JSON values in ``rest``."""

    def __init__(self, keys, columns, rest):
        self.keys, self.columns, self.rest = keys, columns, rest


class _EdgeMap:
    """A JSON object ``{"u,v": value}``, one member per entry of the
    ``heads``, ``tails`` and ``values`` columns."""

    def __init__(self, heads, tails, values):
        self.heads, self.tails, self.values = heads, tails, values


def _plain(obj):
    """The plain JSON value of a numpy column, :class:`_Records` or
    :class:`_EdgeMap` (``json``'s ``default``)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, _Records):
        rows = zip(*(c.tolist() for c in obj.columns))
        return [dict(zip(obj.keys, row)) for row in rows] + list(obj.rest)
    if isinstance(obj, _EdgeMap):
        edges = zip(obj.heads.tolist(), obj.tails.tolist(), obj.values.tolist())
        return {f"{u},{v}": x for u, v, x in edges}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_parts(obj) -> list:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False,
    default=_plain)`` as parts for :func:`formats._write_parts`, formatted by
    columns where the commands' output has them.

    ``json.dumps`` with an indent runs the pure-Python encoder, one generator
    step per value.  Here a str-keyed dict goes member by member, and every
    column form the commands emit goes through one row formatter,
    :func:`_row_slices`, with its own row template: a 1D numpy array of
    floats or ints (a bare entry), a 2D one (a bracketed row over its
    columns), :class:`_Records` (a ``{...}`` row) and :class:`_EdgeMap` (a
    ``"u,v": value`` member).  Each float column goes through ``repr`` once
    per distinct bit pattern of a slice (so ``-0.0`` stays itself).
    Everything else goes to ``json``.

    The columns' text is formatted only as the parts are written,
    ``formats._ROWS`` rows per slice, so the whole text never exists at
    once; everything else runs here.  So does the finite check of every
    float column: a NaN or infinity in one hands the whole tree to ``json``
    again, which raises ``json``'s own ``ValueError`` before any output is
    opened.
    """
    try:
        return _parts(obj, "")
    except _NonFinite:
        return [json.dumps(obj, indent=2, allow_nan=False, default=_plain)]


class _NonFinite(Exception):
    """A NaN or infinity somewhere in a column."""


_FIELDS = {"f": "%s", "i": "%d", "u": "%d"}  # a column's field in a row template


def _bracketed(brackets: str, members, pad: str) -> list:
    """The parts of a JSON array or object: the parts of each member, in
    ``members``, between ``brackets`` at ``pad``."""
    inner = pad + "  "
    parts = [brackets[0] + "\n" + inner]
    for i, member in enumerate(members):
        if i:
            parts.append(",\n" + inner)
        parts += member
    parts.append("\n" + pad + brackets[1])
    return parts


def _parts(obj, pad: str) -> list:
    kind = type(obj)
    inner = pad + "  "
    if kind is dict and obj and set(map(type, obj)) == {str}:
        members = [[encode_basestring_ascii(k) + ": ", *_parts(x, inner)] for k, x in obj.items()]
        return _bracketed("{}", members, pad)
    if kind is np.ndarray and obj.size and obj.ndim <= 2 and obj.dtype.kind in "fiu":
        template, columns = _FIELDS[obj.dtype.kind], [obj]
        if obj.ndim == 2:  # a bracketed row per row, over the array's columns
            template, columns = "".join(_bracketed("[]", [[template]] * obj.shape[1], inner)), obj.T
        return _bracketed("[]", [[_row_slices(template, columns, inner)]], pad)
    if kind is _Records and (obj.columns[0].size or obj.rest):
        rows = []
        if obj.columns[0].size:
            fields = [[encode_basestring_ascii(k).replace("%", "%%") + ": " + _FIELDS[c.dtype.kind]]
                      for k, c in zip(obj.keys, obj.columns)]
            template = "".join(_bracketed("{}", fields, inner))
            rows = [[_row_slices(template, obj.columns, inner)]]
        return _bracketed("[]", rows + [_parts(x, inner) for x in obj.rest], pad)
    if kind is _EdgeMap and obj.heads.size:
        rows = _row_slices('"%d,%d": %s', (obj.heads, obj.tails, obj.values), inner)
        return _bracketed("{}", [[rows]], pad)
    text = json.dumps(obj, indent=2, allow_nan=False, default=_plain)
    return [text.replace("\n", "\n" + pad)]


def _float_texts(values) -> list:
    """``repr`` of each float, once per distinct bit pattern (so ``-0.0``
    keeps its own text)."""
    values = np.asarray(values, dtype=np.float64)
    # return_inverse keeps np.unique from importing numpy.ma (numpy 2.4)
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([*map(repr, bits.view(np.float64).tolist())], dtype=object)
    return texts[which].tolist()


def _row_slices(template: str, columns, pad: str):
    """The slices of the rows of the equal-length int or float ``columns``
    (numpy arrays), each row through ``template`` (one ``%d`` per int and
    one ``%s`` per float column), the rows joined as :func:`_bracketed`
    joins at ``pad``.  Every float column is checked finite before any text
    exists.

    A slice's rows go through one ``%`` over the template repeated once per
    row; bare entries (template ``%d`` or ``%s``) are joined instead, which
    is faster than a ``%`` per entry.
    """
    for column in columns:
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            raise _NonFinite
    sep = ",\n" + pad
    width = len(columns)

    def text(lo, hi):
        texts = [_float_texts(c[lo:hi]) if c.dtype.kind == "f" else c[lo:hi].tolist()
                 for c in columns]
        if template in ("%d", "%s"):
            return sep.join(map(repr, texts[0]) if template == "%d" else texts[0])
        flat = [None] * (width * (hi - lo))
        for j, column in enumerate(texts):
            flat[j::width] = column
        return sep.join([template] * (hi - lo)) % tuple(flat)

    return _sliced(len(columns[0]), text, sep)


def _field_output_format(args, input_fmt: str, field: ScalarField) -> str:
    if getattr(args, "output_format", None):
        return args.output_format
    if input_fmt and (input_fmt != "csv-1d" or field.ndim == 1):
        return input_fmt
    return "csv-1d" if field.ndim == 1 else "field-nd"


def _labels_format(labels) -> str:
    if len(labels.shape) == 1:
        return "csv-1d"
    if len(labels.shape) == 2 and labels._labels.max() <= 65535:  # pgm-2d maxval limit
        return "pgm-2d"
    return "field-nd"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynpers",
        description="Minimum/1-saddle pairing by dynamics and persistence, plus the watershed pipeline.",
    )
    parser.add_argument(
        "--connectivity",
        choices=[c.value for c in Connectivity],
        default="axis",
        help="grid neighborhood (default: axis)",
    )
    parser.add_argument(
        "--invert",
        action="store_true",
        help="negate the input so maxima are analyzed instead of minima",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", nargs="?", default="-", help="input field path or - for stdin")
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--output", default="-", help="output path or - for stdout")

    p = sub.add_parser("pairs", help="minimum/saddle pairs as JSON")
    add_input(p)
    p.add_argument("--method", choices=["persistence", "dynamics", "both"], default="both")

    p = sub.add_parser("dynamics", help="dynamics value and witness saddle of one minimum")
    add_input(p)
    p.add_argument("--min", type=int, required=True, dest="min_vertex")

    p = sub.add_parser("diagram", help="persistence diagram points as JSON")
    add_input(p)
    p.add_argument(
        "--essential-death",
        choices=["omit", "max"],
        default="omit",
        help="drop the essential pair or give it the field maximum as death",
    )

    p = sub.add_parser("curve", help="granulometric curve as JSON")
    add_input(p)

    p = sub.add_parser("filter", help="cancel all pairs below a dynamics threshold")
    add_input(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--output-format", choices=FORMATS, default=None)

    p = sub.add_parser(
        "watershed",
        help="basin labels: csv-1d in 1D, pgm-2d in 2D (field-nd past label 65535), field-nd above",
    )
    add_input(p)

    p = sub.add_parser("saliency", help="boundary saliency as JSON edge list or doubled grid")
    add_input(p)
    p.add_argument(
        "--as-field",
        action="store_true",
        help="emit the doubled-resolution interleaved field-nd instead of JSON",
    )

    p = sub.add_parser("segment", help="filter + watershed + curve in one JSON bundle")
    add_input(p)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("verify", help="equivalence sweep over generated fields")
    p.add_argument("--kind", choices=KINDS, default="uniform_random")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--shape", default="64")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bumps", type=int, default=3)
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the per-minimum path oracle (pairings only)")
    p.add_argument("--output", default="-")

    p = sub.add_parser("gen", help="write a seeded test field")
    p.add_argument("--kind", choices=KINDS, default="uniform_random")
    p.add_argument("--shape", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bumps", type=int, default=3)
    p.add_argument("--amp", default="0:1", help="amplitude range lo:hi")
    p.add_argument("--output", default="-")
    p.add_argument("--output-format", choices=FORMATS, default=None)

    return parser


def _cmd_pairs(args, conn, invert) -> int:
    field, _ = _read_input(args.input, args.format, conn, invert)
    if args.method == "dynamics":
        pairs = _dynamics_columns(field)
    else:
        pairs = _persistence_columns(field)
        if args.method == "both":
            bad, _ = _divergent_minimum(field, pairs, _dynamics_columns(field), False)
            if bad is not None:
                raise DivergenceError("persistence and dynamics pairings disagree on this field")
    _emit_json(_Records(*pairs.json_records()), args.output)
    return EXIT_OK


def _cmd_dynamics(args, conn, invert) -> int:
    field, _ = _read_input(args.input, args.format, conn, invert)
    value, witness = dynamics_oracle(field, args.min_vertex)
    obj = {
        "min_index": args.min_vertex,
        "value": "inf" if math.isinf(value) else value,
        "witness": witness,
    }
    _emit_json(obj, args.output)
    return EXIT_OK


def _cmd_diagram(args, conn, invert) -> int:
    field, _ = _read_input(args.input, args.format, conn, invert)
    pairs = _persistence_columns(field)
    points = np.stack((pairs.births, pairs.deaths), axis=1)
    if args.essential_death == "max" and pairs.essential is not None:
        points = np.vstack((points, [[pairs.essential[1], field.values.max()]]))
    _emit_json(points, args.output)
    return EXIT_OK


def _cmd_curve(args, conn, invert) -> int:
    field, _ = _read_input(args.input, args.format, conn, invert)
    pairs = _persistence_columns(field)
    _emit_json(_curve_json(*_curve_columns(pairs.values, len(pairs))), args.output)
    return EXIT_OK


def _cmd_filter(args, conn, invert) -> int:
    field, input_fmt = _read_input(args.input, args.format, conn, invert)
    filtered = filter_dynamics(field, args.t)
    _emit_field(filtered, args.output, _field_output_format(args, input_fmt, filtered), invert)
    return EXIT_OK


def _cmd_watershed(args, conn, invert) -> int:
    field, _ = _read_input(args.input, args.format, conn, invert)
    labels = watershed(field)
    label_field = ScalarField(field.shape, labels._labels, field.connectivity)
    _emit_field(label_field, args.output, _labels_format(labels))
    return EXIT_OK


def _cmd_saliency(args, conn, invert) -> int:
    field, _ = _read_input(args.input, args.format, conn, invert)
    sal = saliency(field)
    if args.as_field:
        _emit_field(saliency_to_field(sal), args.output, "field-nd")
    else:
        _emit_json(_EdgeMap(sal.heads, sal.tails, sal.values), args.output)
    return EXIT_OK


def _cmd_segment(args, conn, invert) -> int:
    field, _ = _read_input(args.input, args.format, conn, invert)
    filtered, labels, pairs, curve = _segment_columns(field, args.t)
    obj = {
        "threshold": args.t,
        "region_count": labels.region_count,
        "labels": labels._labels,
        "filtered": -filtered.values if invert else filtered.values,
        "pairs": _Records(*pairs.json_records()),
        "curve": _curve_json(*curve),
    }
    _emit_json(obj, args.output)
    return EXIT_OK


def _cmd_verify(args, conn, invert) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    shape = _parse_shape(args.shape)
    specs = [
        GeneratorSpec(
            kind=args.kind,
            shape=shape,
            seed=args.seed + i,
            bumps=args.bumps,
            connectivity=conn,
        )
        for i in range(args.trials)
    ]
    report = sweep(
        specs,
        fail_fast=args.fail_fast,
        check_oracle=not args.no_oracle,
    )
    _emit_json(report.to_json(), args.output)
    return EXIT_OK if report.pairings_identical else EXIT_DIVERGENCE


def _cmd_gen(args, conn, invert) -> int:
    try:
        lo, hi = (float(part) for part in args.amp.split(":"))
    except ValueError:
        raise UsageError(f"bad amplitude range {args.amp!r}; expected lo:hi") from None
    spec = GeneratorSpec(
        kind=args.kind,
        shape=_parse_shape(args.shape),
        seed=args.seed,
        bumps=args.bumps,
        amplitude=(lo, hi),
        connectivity=conn,
    )
    field = generate(spec)
    fmt = args.output_format or ("csv-1d" if field.ndim == 1 else "field-nd")
    _emit_field(field, args.output, fmt)
    return EXIT_OK


_COMMANDS = {
    "pairs": _cmd_pairs,
    "dynamics": _cmd_dynamics,
    "diagram": _cmd_diagram,
    "curve": _cmd_curve,
    "filter": _cmd_filter,
    "watershed": _cmd_watershed,
    "saliency": _cmd_saliency,
    "segment": _cmd_segment,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process; parsing leaves it unchanged, so calls can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    conn = Connectivity(args.connectivity)
    try:
        return _COMMANDS[args.command](args, conn, args.invert)
    except DivergenceError as exc:
        print(f"dynpers: divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except FormatError as exc:
        print(f"dynpers: parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UsageError as exc:
        print(f"dynpers: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print("dynpers: error: not enough memory for this input", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"dynpers: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
