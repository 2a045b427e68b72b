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
import re

import numpy as np

from .errors import FormatError, UsageError
from .grid import Connectivity, ScalarField

FORMATS = ("csv-1d", "pgm-2d", "field-nd")

# Text is written _ROWS rows (values, records, members) at a time and parsed
# about _CHARS characters at a time, so neither side ever holds a Python
# object per value of the whole field.
_ROWS = 1024
_CHARS = 1 << 16

_SPACE = re.compile(r"\s")  # exactly the characters where str.isspace() is true
_NON_SPACE = re.compile(r"\S")


def sniff_format(text: str) -> str:
    """Guess the format from the first token of the file body."""
    start = _NON_SPACE.search(text)
    head = text[start.start():start.start() + 16] if start else ""
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
    out = io.StringIO()
    _write_parts(_field_parts(field, fmt), out)
    text = out.getvalue()
    if target is not None:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="ascii") as fh:
                fh.write(text)
    return text


def _field_parts(field: ScalarField, fmt: str | None) -> list:
    """The text of ``field`` in ``fmt`` as parts for :func:`_write_parts`.

    Every check runs here, before any text is formatted, so a caller can
    open its output after this returns and nothing but I/O can fail later.
    """
    if fmt is None:
        fmt = "csv-1d" if field.ndim == 1 else "field-nd"
    if fmt == "csv-1d":
        if field.ndim != 1:
            raise UsageError(f"csv-1d stores 1D fields only, got shape {field.shape}")
        return [_lines(field.values)]
    if fmt == "pgm-2d":
        return _pgm2d_parts(field)
    if fmt == "field-nd":
        header = "FIELD " + str(field.ndim) + " " + " ".join(str(e) for e in field.shape)
        return [header + "\n", _lines(field.values)]
    raise UsageError(f"unknown field format {fmt!r}; expected one of {FORMATS}")


def _write_parts(parts, out) -> None:
    """Write ``parts`` to the text stream ``out``: each part is a string or
    an iterable of strings (a generator of slices)."""
    for part in parts:
        if type(part) is str:
            out.write(part)
        else:
            out.writelines(part)


def _sliced(rows: int, text, sep: str, step: int = _ROWS):
    """``text(lo, hi)`` for each slice of ``step`` of the ``rows`` rows,
    ``sep`` between two slices."""
    for lo in range(0, rows, step):
        if lo:
            yield sep
        yield text(lo, min(lo + step, rows))


def _lines(values):
    """The slices of one value per line, every line ended."""
    # repr() is the shortest string that round-trips the double exactly.
    def text(lo, hi):
        return "\n".join(map(repr, values[lo:hi].tolist())) + "\n"

    return _sliced(values.size, text, "")


def _read_csv1d(text: str, connectivity) -> ScalarField:
    values = np.empty(text.count("\n") + 1)  # grown if lines end otherwise
    found = lineno = 0
    for lines in _line_slices(text):
        try:
            floats = [*map(float, filter(None, map(str.strip, lines)))]
        except ValueError:
            for lineno, raw in enumerate(lines, start=lineno + 1):
                line = raw.strip()
                if line:
                    try:
                        float(line)
                    except ValueError:
                        raise FormatError(
                            f"csv-1d: non-numeric token {line!r} on line {lineno}"
                        ) from None
            raise
        if found + len(floats) > values.size:
            values = np.concatenate((values[:found], np.empty(found + len(floats))))
        values[found:found + len(floats)] = floats
        found += len(floats)
        lineno += len(lines)
    if not found:
        raise FormatError("csv-1d: no values found")
    return ScalarField((found,), values[:found], connectivity)


def _line_slices(text: str):
    """``text.splitlines()``, about :data:`_CHARS` characters at a time.
    Each cut falls just after a line feed, which ends a line (a carriage
    return before it included), so the slices' lines are exactly the whole
    text's lines."""
    pos, end = 0, len(text)
    while pos < end:
        cut = text.find("\n", pos + _CHARS) + 1 or end
        yield text[pos:cut].splitlines()
        pos = cut


def _read_fieldnd(text: str, connectivity) -> ScalarField:
    start = _NON_SPACE.search(text)
    start = start.start() if start else len(text)
    stop = text.find("\n", start)
    body = len(text) if stop < 0 else stop + 1
    header = text[start:body].split()
    if not header or header[0] != "FIELD":
        raise FormatError("field-nd: missing FIELD magic in header")
    try:
        ndim = int(header[1])
        shape = tuple(int(t) for t in header[2:])
    except (IndexError, ValueError):
        raise FormatError("field-nd: malformed header, expected 'FIELD <ndim> <e1> ...'") from None
    if ndim < 1 or len(shape) != ndim or any(e < 1 for e in shape):
        raise FormatError(f"field-nd: bad header, ndim={ndim} but extents {shape}")
    n = 1
    for e in shape:
        n *= e
    # Each value takes a character and a separator; a header asking for more
    # cannot match the body, whose tokens are then only counted.
    values = np.empty(n if n <= (len(text) - body + 1) // 2 else 0)
    found, bad = 0, None
    for tokens in _token_slices(text, body):
        if bad is None and found + len(tokens) <= values.size:
            try:
                values[found:found + len(tokens)] = [*map(float, tokens)]
            except ValueError:
                offset = _first_rejected(float, tokens)
                bad = (tokens[offset], found + offset)
        found += len(tokens)
    if found != n:
        raise FormatError(f"field-nd: expected {n} values for shape {shape}, found {found}")
    if bad is not None:
        raise FormatError("field-nd: non-numeric token %r at value offset %d" % bad)
    return ScalarField(shape, values, connectivity)


def _token_slices(text: str, pos: int):
    """``text[pos:].split()``, about :data:`_CHARS` characters at a time.
    Each cut falls on a whitespace character, so no token straddles two
    slices."""
    end = len(text)
    while pos < end:
        cut = pos + _CHARS
        if cut < end:
            space = _SPACE.search(text, cut)
            cut = space.start() if space else end
        yield text[pos:cut].split()
        pos = cut


def _first_rejected(convert, tokens) -> int:
    """The index of the first token that ``convert`` rejects with ``ValueError``."""
    for offset, tok in enumerate(tokens):
        try:
            convert(tok)
        except ValueError:
            return offset
    raise AssertionError("every token converts")


def _read_pgm2d(text: str, connectivity) -> ScalarField:
    # Strip comment lines before tokenizing; P2 allows '#' to end of line.
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = text.split()
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
    try:
        pixels = [*map(int, body)]
    except ValueError:
        offset = _first_rejected(int, body)
        raise FormatError(f"pgm-2d: non-numeric pixel {body[offset]!r} at offset {offset}") from None
    try:
        values = np.array(pixels, dtype=np.float64)
        inside = (values >= 0) & (values <= maxval)
    except OverflowError:  # an integer past float64's range is out of range too
        inside = np.array([0 <= pix <= maxval for pix in pixels])
    if not inside.all():
        offset = int(inside.argmin())
        raise FormatError(
            f"pgm-2d: pixel {pixels[offset]} at offset {offset} exceeds maxval {maxval}"
        )
    return ScalarField((height, width), values, connectivity)


def _pgm2d_parts(field: ScalarField) -> list:
    if field.ndim != 2:
        raise UsageError(f"pgm-2d stores 2D fields only, got shape {field.shape}")
    ints = np.rint(field.values).astype(np.int64)
    if ints.min() < 0:
        raise UsageError("pgm-2d cannot store negative values")
    maxval = max(1, int(ints.max()))
    if maxval > 65535:
        raise UsageError(f"pgm-2d maxval {maxval} exceeds 65535")
    height, width = field.shape
    row = " ".join(["%d"] * width) + "\n"

    def text(lo, hi):
        return (row * (hi - lo)) % tuple(ints[lo * width:hi * width].tolist())

    header = f"P2\n{width} {height}\n{maxval}\n"
    return [header, _sliced(height, text, "", max(1, _ROWS // width))]
