"""Reading and writing fields: csv-1d, pgm-2d and field-nd.

All three are plain text.  ``csv-1d`` is one decimal per line, ``pgm-2d`` is
ASCII P2, and ``field-nd`` is a one-line header ``FIELD <ndim> <e1> ... <en>``
followed by whitespace-separated values in row-major order.  csv-1d and
field-nd round-trip bit-exactly; pgm-2d stores integers and therefore
quantizes on write.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .errors import FormatError, UsageError
from .grid import Connectivity, ScalarField

FORMATS = ("csv-1d", "pgm-2d", "field-nd")


def sniff_format(text: str) -> str:
    """Guess the format from the first token of the file body."""
    head = text.lstrip()[:16]
    if head.startswith("P2"):
        return "pgm-2d"
    if head.startswith("FIELD"):
        return "field-nd"
    return "csv-1d"


def read_field(source, fmt: str | None = None, connectivity=Connectivity.AXIS) -> ScalarField:
    """Parse a field from a path or a file object.

    A string is always a path; parse field text with :func:`parse_field`.
    ``fmt`` is as for :func:`parse_field`.
    """
    if hasattr(source, "read"):
        text = _read_ascii(source, getattr(source, "name", "input"))
    elif isinstance(source, (str, os.PathLike)):
        text = _read_ascii(source, os.fspath(source))
    else:
        raise FormatError(f"cannot read field from {source!r}")
    return parse_field(text, fmt, connectivity)


def _read_ascii(source, name: str) -> str:
    """The text of a path or a file object, which must be ASCII throughout;
    ``name`` names the source in the error.  A path is decoded as ASCII, so
    its error gives a byte offset; a file object's text is checked as read,
    so its error gives a character offset."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="ascii") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{name}: non-ASCII byte at offset {exc.start}") from None
    if not text.isascii():
        offset = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise FormatError(f"{name}: non-ASCII character at offset {offset}")
    return text


def parse_field(text: str, fmt: str | None = None, connectivity=Connectivity.AXIS) -> ScalarField:
    """Parse a field from its text.

    ``fmt`` is one of ``csv-1d``, ``pgm-2d``, ``field-nd``; when omitted it is
    sniffed from the content.
    """
    if fmt is None:
        fmt = sniff_format(text)
    if fmt == "csv-1d":
        return _read_csv1d(text, connectivity)
    if fmt == "pgm-2d":
        return _read_pgm2d(text, connectivity)
    if fmt == "field-nd":
        return _read_fieldnd(text, connectivity)
    raise UsageError(f"unknown field format {fmt!r}; expected one of {FORMATS}")


def write_field(field: ScalarField, target=None, fmt: str | None = None) -> str:
    """Serialize a field; returns the text and writes it to ``target`` if given."""
    if fmt is None:
        fmt = "csv-1d" if field.ndim == 1 else "field-nd"
    if fmt == "csv-1d":
        if field.ndim != 1:
            raise UsageError(f"csv-1d stores 1D fields only, got shape {field.shape}")
        text = _lines(field.values)
    elif fmt == "pgm-2d":
        text = _write_pgm2d(field)
    elif fmt == "field-nd":
        header = "FIELD " + str(field.ndim) + " " + " ".join(str(e) for e in field.shape)
        text = header + "\n" + _lines(field.values)
    else:
        raise UsageError(f"unknown field format {fmt!r}; expected one of {FORMATS}")
    if target is not None:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="ascii") as fh:
                fh.write(text)
    return text


def _lines(values) -> str:
    # repr() is the shortest string that round-trips the double exactly.
    return "\n".join(map(repr, values.tolist())) + "\n"


def _read_csv1d(text: str, connectivity) -> ScalarField:
    lines = text.splitlines()
    try:
        values = list(map(float, filter(None, map(str.strip, lines))))
    except ValueError:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if line:
                try:
                    float(line)
                except ValueError:
                    raise FormatError(
                        f"csv-1d: non-numeric token {line!r} on line {lineno}"
                    ) from None
        raise
    if not values:
        raise FormatError("csv-1d: no values found")
    return ScalarField((len(values),), values, connectivity)


def _read_fieldnd(text: str, connectivity) -> ScalarField:
    head, _, rest = text.lstrip().partition("\n")
    header = head.split()
    if not header or header[0] != "FIELD":
        raise FormatError("field-nd: missing FIELD magic in header")
    try:
        ndim = int(header[1])
        shape = tuple(int(t) for t in header[2:])
    except (IndexError, ValueError):
        raise FormatError("field-nd: malformed header, expected 'FIELD <ndim> <e1> ...'") from None
    if ndim < 1 or len(shape) != ndim or any(e < 1 for e in shape):
        raise FormatError(f"field-nd: bad header, ndim={ndim} but extents {shape}")
    body = rest.split()
    n = 1
    for e in shape:
        n *= e
    if len(body) != n:
        raise FormatError(f"field-nd: expected {n} values for shape {shape}, found {len(body)}")
    try:
        values = list(map(float, body))
    except ValueError:
        for offset, tok in enumerate(body):
            try:
                float(tok)
            except ValueError:
                raise FormatError(
                    f"field-nd: non-numeric token {tok!r} at value offset {offset}"
                ) from None
        raise
    return ScalarField(shape, values, connectivity)


def _read_pgm2d(text: str, connectivity) -> ScalarField:
    # Strip comment lines before tokenizing; P2 allows '#' to end of line.
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = stripped.split()
    if not tokens or tokens[0] != "P2":
        raise FormatError("pgm-2d: missing P2 magic")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except (IndexError, ValueError):
        raise FormatError("pgm-2d: malformed header, expected width/height/maxval") from None
    if width < 1 or height < 1 or not 0 < maxval <= 65535:
        raise FormatError(f"pgm-2d: bad header values ({width}x{height}, maxval={maxval})")
    body = tokens[4:]
    if len(body) != width * height:
        raise FormatError(
            f"pgm-2d: expected {width * height} pixels for {width}x{height}, found {len(body)}"
        )
    values = []
    for offset, tok in enumerate(body):
        try:
            pix = int(tok)
        except ValueError:
            raise FormatError(f"pgm-2d: non-numeric pixel {tok!r} at offset {offset}") from None
        if not 0 <= pix <= maxval:
            raise FormatError(f"pgm-2d: pixel {pix} at offset {offset} exceeds maxval {maxval}")
        values.append(float(pix))
    return ScalarField((height, width), values, connectivity)


def _write_pgm2d(field: ScalarField) -> str:
    if field.ndim != 2:
        raise UsageError(f"pgm-2d stores 2D fields only, got shape {field.shape}")
    ints = np.rint(field.values).astype(np.int64)
    if ints.min() < 0:
        raise UsageError("pgm-2d cannot store negative values")
    maxval = max(1, int(ints.max()))
    if maxval > 65535:
        raise UsageError(f"pgm-2d maxval {maxval} exceeds 65535")
    height, width = field.shape
    out = io.StringIO()
    out.write(f"P2\n{width} {height}\n{maxval}\n")
    for row in ints.reshape(field.shape).tolist():
        out.write(" ".join(map(repr, row)) + "\n")
    return out.getvalue()
