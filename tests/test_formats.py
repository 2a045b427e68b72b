import re

import numpy as np
import pytest

import dynpers.formats as formats
from dynpers import (
    FormatError,
    ScalarField,
    UsageError,
    parse_field,
    read_field,
    sniff_format,
    write_field,
)


def test_csv_parse_example():
    f = parse_field("5\n1\n4\n0\n6\n", "csv-1d")
    assert f.shape == (5,)
    assert f.values.tolist() == [5, 1, 4, 0, 6]


def test_fieldnd_parse_example():
    f = parse_field("FIELD 2 3 3\n9 8 10 2 7 3 11 12 13\n", "field-nd")
    assert f.shape == (3, 3)
    assert f.values.tolist() == [9, 8, 10, 2, 7, 3, 11, 12, 13]


def test_fieldnd_roundtrip_random_32x32(tmp_path):
    rng = np.random.default_rng(7)
    f = ScalarField((32, 32), rng.standard_normal(1024))
    path = tmp_path / "field.txt"
    write_field(f, path, fmt="field-nd")
    g = read_field(path)
    assert g.shape == f.shape
    assert np.array_equal(g.values, f.values)  # bit-exact


def test_csv_roundtrip_bit_exact():
    rng = np.random.default_rng(3)
    f = ScalarField((64,), rng.uniform(-1e9, 1e9, 64))
    g = parse_field(write_field(f, fmt="csv-1d"), "csv-1d")
    assert np.array_equal(g.values, f.values)


def test_pgm_roundtrip_quantizes():
    f = ScalarField((2, 3), [0.2, 1.6, 2.4, 3.5, 4.0, 5.9])
    text = write_field(f, fmt="pgm-2d")
    g = parse_field(text, "pgm-2d")
    assert g.shape == (2, 3)
    assert g.values.tolist() == np.rint(f.values).tolist()


def test_pgm_reads_comments_and_whitespace():
    text = "P2\n# a comment\n3 2\n10\n0 1 2\n3 4 5\n"
    f = parse_field(text)
    assert f.shape == (2, 3)
    assert f.values.tolist() == [0, 1, 2, 3, 4, 5]


def test_pgm_write_rejects_negative_and_overflow():
    with pytest.raises(UsageError):
        write_field(ScalarField((1, 2), [-1.0, 0.0]), fmt="pgm-2d")
    with pytest.raises(UsageError):
        write_field(ScalarField((1, 2), [0.0, 70000.0]), fmt="pgm-2d")


@pytest.mark.parametrize(
    "text,fmt,fragment",
    [
        ("5\nxyz\n1\n", "csv-1d", "line 2"),
        ("", "csv-1d", "no values"),
        ("FIELD 2 3\n1 2 3\n", "field-nd", "header"),
        ("FIELD 2 2 2\n1 2 3\n", "field-nd", "expected 4"),
        ("FIELD 1 3\n1 b 3\n", "field-nd", "offset 1"),
        ("P2\n2 2\n", "pgm-2d", "header"),
        ("P2\n2 1\n5\n1 9\n", "pgm-2d", "exceeds maxval"),
        ("P5\n2 1\n5\n1 2\n", "pgm-2d", "magic"),
    ],
)
def test_parse_errors_name_location(text, fmt, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_field(text, fmt)


@pytest.mark.parametrize(
    "text,fmt,message",
    [
        ("5\n\n  xyz \n1\n", "csv-1d", "csv-1d: non-numeric token 'xyz' on line 3"),
        ("1\n2\n1 2\n", "csv-1d", "csv-1d: non-numeric token '1 2' on line 3"),
        ("nan?\n", "csv-1d", "csv-1d: non-numeric token 'nan?' on line 1"),
        ("FIELD 1 3\n1 b 3\n", "field-nd", "field-nd: non-numeric token 'b' at value offset 1"),
        ("FIELD 2 2 2\n1 2\n3 0x4\n", "field-nd",
         "field-nd: non-numeric token '0x4' at value offset 3"),
    ],
)
def test_parse_error_messages(text, fmt, message):
    with pytest.raises(FormatError) as info:
        parse_field(text, fmt)
    assert str(info.value) == message


def test_sniffing():
    assert sniff_format("P2\n1 1\n1\n0\n") == "pgm-2d"
    assert sniff_format("FIELD 1 3\n1 2 3\n") == "field-nd"
    assert sniff_format("1.5\n2.5\n") == "csv-1d"


def test_csv_rejects_nd_field():
    with pytest.raises(UsageError):
        write_field(ScalarField((2, 2), [1, 2, 3, 4]), fmt="csv-1d")


def test_unknown_format_rejected():
    with pytest.raises(UsageError):
        parse_field("1\n", "npy")


def test_read_field_takes_a_path_or_a_file_object(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("5\n1\n4\n0\n6\n", encoding="ascii")
    assert read_field(str(path)).values.tolist() == [5, 1, 4, 0, 6]
    with open(path, encoding="ascii") as fh:
        assert read_field(fh).values.tolist() == [5, 1, 4, 0, 6]
    # a string is always a path, never field text
    with pytest.raises(FileNotFoundError):
        read_field("5\n1\n4\n0\n6\n")


@pytest.mark.parametrize("data, offset", [
    (b"\xef\xbb\xbf5\n1\n4\n", 0),  # a UTF-8 byte order mark
    (b"5\n1\n\xc3\xa9\n", 4),  # e acute in UTF-8
], ids=["bom", "c3"])
def test_read_field_rejects_non_ascii(tmp_path, data, offset):
    path = tmp_path / "field.csv"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: non-ASCII byte at offset {offset}$"):
        read_field(path)
    # a file object hands over decoded text: its offset counts characters
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(FormatError, match=f": non-ASCII character at offset {offset}$"):
            read_field(fh)


# --- sliced writer and readers ---------------------------------------------

R = formats._ROWS
# the edges of one and two slices, and lengths that span several slices
# (4096 is a whole number of slices for any power-of-two slice up to 4096 rows)
LENGTHS = tuple(sorted({1, R - 1, R, R + 1, 2 * R + 1, 4095, 4096, 4097, 8193}))
# every ASCII character where str.isspace() is true
ASCII_SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def reference_write_field(field, fmt):
    """The whole-text writer the sliced one replaced, kept as the reference."""
    def lines(values):
        return "\n".join(map(repr, values.tolist())) + "\n"

    if fmt == "csv-1d":
        return lines(field.values)
    if fmt == "field-nd":
        return "FIELD " + str(field.ndim) + " " + " ".join(map(str, field.shape)) + "\n" + lines(
            field.values)
    ints = np.rint(field.values).astype(np.int64)
    height, width = field.shape
    out = [f"P2\n{width} {height}\n{max(1, int(ints.max()))}\n"]
    for row in ints.reshape(field.shape).tolist():
        out.append(" ".join(map(repr, row)) + "\n")
    return "".join(out)


def reference_read_csv1d(text):
    """The whole-text csv-1d reader, kept as the reference: ``(values, message)``."""
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            try:
                float(line)
            except ValueError:
                return None, f"csv-1d: non-numeric token {line!r} on line {lineno}"
    values = [float(line) for line in map(str.strip, lines) if line]
    return (values, None) if values else (None, "csv-1d: no values found")


def reference_read_fieldnd(text):
    """The whole-text field-nd reader's body (header already valid), kept as
    the reference: ``(values, message)``."""
    head, _, rest = text.lstrip().partition("\n")
    shape = tuple(int(t) for t in head.split()[2:])
    body = rest.split()
    n = int(np.prod(shape))
    if len(body) != n:
        return None, f"field-nd: expected {n} values for shape {shape}, found {len(body)}"
    for offset, tok in enumerate(body):
        try:
            float(tok)
        except ValueError:
            return None, f"field-nd: non-numeric token {tok!r} at value offset {offset}"
    return list(map(float, body)), None


def parsed(text, fmt):
    try:
        field = parse_field(text, fmt)
    except FormatError as exc:
        return None, str(exc)
    return field.values.tolist(), None


def same_parse(got, expected):
    """Equal messages, or values equal bit for bit (signed zeros included)."""
    (values, message), (ref_values, ref_message) = got, expected
    assert message == ref_message
    if ref_values is not None:
        assert np.array_equal(np.array(values).view(np.int64), np.array(ref_values).view(np.int64))


class TestSlicedWriter:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_csv_and_fieldnd_equal_the_whole_text(self, n, tmp_path):
        values = np.random.default_rng(n).choice([0.0, -0.0, 0.1, 1e16, 5e-324, -2.5, 1 / 3], n)
        for field, fmt in ((ScalarField((n,), values), "csv-1d"),
                           (ScalarField((n,), values), "field-nd"),
                           (ScalarField((1, n, 1), values), "field-nd")):
            expected = reference_write_field(field, fmt)
            assert write_field(field, fmt=fmt) == expected
            path = tmp_path / "out.txt"
            assert write_field(field, path, fmt=fmt) == expected
            assert path.read_text(encoding="ascii") == expected

    @pytest.mark.parametrize("width", sorted({1, 3, R - 1, R, R + 1, 4095, 4096, 4097}))
    def test_pgm_equals_the_whole_text(self, width):
        step = max(1, R // width)  # image rows per slice
        rng = np.random.default_rng(width)
        for height in sorted({1, step - 1, step, step + 1, 2 * step + 1} - {0}):
            field = ScalarField((height, width), rng.integers(0, 70, height * width))
            assert write_field(field, fmt="pgm-2d") == reference_write_field(field, "pgm-2d")


class TestSlicedReaders:
    """The readers cut the text every ``_CHARS`` characters or so; with tiny
    slices every token and line straddles a cut somewhere."""

    TOKENS = ["0", "-0.0", "1e16", "5e-324", "0.1", "-2.5", "1_0", "+7", "123456789.25"]

    def texts(self, seps, count):
        rng = np.random.default_rng(len(seps) * 1000 + count)
        tokens = rng.choice(self.TOKENS, count).tolist()
        gaps = rng.choice(list(seps), count).tolist()
        return tokens, "".join(t + g for t, g in zip(tokens, gaps))

    @pytest.mark.parametrize("chars", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("sep", list(ASCII_SPACES) + [ASCII_SPACES], ids=repr)
    def test_fieldnd_matches_the_whole_text_reader(self, sep, chars, monkeypatch):
        monkeypatch.setattr(formats, "_CHARS", chars)
        tokens, body = self.texts(sep, 40)
        bad = sep.join(tokens[:31] + ["0x7"] + tokens[32:]) + sep
        cases = [
            f"FIELD 2 5 8{sep}\n{body}",
            f"{sep} \nFIELD 1 40\n{body}",  # whitespace before the header
            f"FIELD 1 39\n{body}",  # too many values
            f"FIELD 1 41\n{body}",  # too few
            f"FIELD 1 4100\n{body}",  # more values than the body has characters
            f"FIELD 1 40\n{bad}",  # a bad token in a later slice
            f"FIELD 1 39\n{bad}",  # a bad token and too many values: the count wins
        ]
        for text in cases:
            same_parse(parsed(text, "field-nd"), reference_read_fieldnd(text))
        assert parsed(cases[0], "field-nd")[0] == list(map(float, tokens))
        assert parsed(cases[5], "field-nd")[1] == (
            "field-nd: non-numeric token '0x7' at value offset 31")

    @pytest.mark.parametrize("chars", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("ends", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\n\r\x0b\x0c\x1c\x1d\x1e"], ids=repr)
    def test_csv_matches_the_whole_text_reader(self, ends, chars, monkeypatch):
        monkeypatch.setattr(formats, "_CHARS", chars)
        tokens, _ = self.texts(" ", 40)
        rng = np.random.default_rng(chars)
        pads = rng.choice([" ", "\t", "\x1f", ""], 40).tolist()
        gaps = rng.choice(list(ends), 40).tolist()

        def text_of(tokens):  # padded lines, an empty line after every third
            return "".join(pad + tok + pad + gap + "\n" * (k % 3 == 0)
                           for k, (tok, pad, gap) in enumerate(zip(tokens, pads, gaps)))

        text = text_of(tokens)
        for case in (text, text_of(tokens[:30] + ["1 2"] + tokens[31:]), text + "nan?",
                     "\n\n" + " \t\n" * 5):
            same_parse(parsed(case, "csv-1d"), reference_read_csv1d(case))
        assert parsed(text, "csv-1d")[0] == list(map(float, tokens))

    def test_non_ascii_whitespace_separates(self, monkeypatch):
        monkeypatch.setattr(formats, "_CHARS", 2)
        for text, fmt in (("FIELD 1 3\n1\u20032.5\u00a0-3\u3000", "field-nd"),
                          ("1\u2028\u2003 2.5 \u2029-3\x85", "csv-1d")):
            ref = reference_read_fieldnd(text) if fmt == "field-nd" else reference_read_csv1d(text)
            assert ref == ([1.0, 2.5, -3.0], None)
            same_parse(parsed(text, fmt), ref)

    def test_slices_of_the_default_size(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(30_000)
        text = "".join(f"{v!r}\n" for v in values.tolist())
        assert len(text) > 8 * formats._CHARS
        assert np.array_equal(parse_field(text, "csv-1d").values, values)
        assert np.array_equal(parse_field("FIELD 1 30000\n" + text, "field-nd").values, values)
        bad = text[:-40] + "x" + text[-40:]
        for fmt, body in (("csv-1d", bad), ("field-nd", "FIELD 1 30000\n" + bad),
                          ("field-nd", "FIELD 1 29999\n" + text),
                          ("field-nd", "FIELD 1 30001\n" + text)):
            ref = reference_read_csv1d(body) if fmt == "csv-1d" else reference_read_fieldnd(body)
            same_parse(parsed(body, fmt), ref)
            assert ref[1] is not None


@pytest.mark.parametrize("text, message", [
    ("P2\n3 2\n9\n1 2 3\n4 x 6\n", "pgm-2d: non-numeric pixel 'x' at offset 4"),
    ("P2\n3 2\n9\n1 2 3\n4 10 6\n", "pgm-2d: pixel 10 at offset 4 exceeds maxval 9"),
    ("P2\n3 2\n9\n1 2 3\n4 5 -1\n", "pgm-2d: pixel -1 at offset 5 exceeds maxval 9"),
    ("P2\n2 2\n9\n1 2\n0 1" + "0" * 400 + "\n",
     f"pgm-2d: pixel {10 ** 400} at offset 3 exceeds maxval 9"),
    ("P2\n3 2\n9\n1 2 3\n4 5 0009\n", None),
])
def test_pgm_pixels_convert_first_then_check_the_range(text, message):
    if message is None:
        assert parse_field(text).values.tolist() == [1, 2, 3, 4, 5, 9]
    else:
        with pytest.raises(FormatError) as info:
            parse_field(text)
        assert str(info.value) == message
