import re

import numpy as np
import pytest

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
