import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynpers.cli as cli
import dynpers.formats as formats
import dynpers.morphology as morphology
import dynpers.pairing as pairing
from dynpers import (
    GranulometricCurve,
    SaliencyMap,
    ScalarField,
    UsageError,
    filter_dynamics,
    granulometric_curve,
    pair_by_persistence,
    pairs_to_json,
    parse_field,
    saliency,
    segment_pipeline,
    watershed,
)
from dynpers.equivalence import _divergent_minimum
from dynpers.grid import Connectivity, offset_slices
from dynpers.pairing import _dynamics_columns, _persistence_columns, pairing_signature
from fields import GRIDS_4D, tie_heavy_fields

SIGNAL_CSV = "5\n1\n4\n0\n6\n"
PAIR_COLUMNS = ("mins", "saddles", "births", "deaths", "values")


def run_cli(argv, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "dynpers.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc


def json_text(obj) -> str:
    """The CLI's JSON text of ``obj``: its writer run into a string."""
    out = io.StringIO()
    cli._write_parts(cli._json_parts(obj), out)
    return out.getvalue()


def run_main(argv, stdin, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPairs:
    def test_both_methods_agree_on_signal(self, capsys, monkeypatch):
        code, out, _ = run_main(["pairs", "--method", "both"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 0
        objs = json.loads(out)
        assert objs[0] == {
            "min_index": 1,
            "birth": 1.0,
            "saddle_index": 2,
            "death": 4.0,
            "value": 3.0,
        }
        assert objs[1]["value"] == "inf"

    def test_single_method_selectable(self, capsys, monkeypatch):
        for method in ("persistence", "dynamics"):
            code, out, _ = run_main(["pairs", "--method", method], SIGNAL_CSV, capsys, monkeypatch)
            assert code == 0
            assert json.loads(out)[0]["value"] == 3.0

    def test_divergence_exits_3(self, capsys, monkeypatch):
        def corrupted(field):  # the essential pair only
            pairs = _dynamics_columns(field)
            return dataclasses.replace(pairs, **{k: getattr(pairs, k)[:0] for k in PAIR_COLUMNS})

        monkeypatch.setattr(cli, "_dynamics_columns", corrupted)
        code, _, err = run_main(["pairs", "--method", "both"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 3
        assert "divergence" in err

    def test_swapped_saddle_exits_3(self, capsys, monkeypatch):
        def corrupted(field):  # as many pairs, the finite pair's saddle moved one vertex on
            pairs = _dynamics_columns(field)
            return dataclasses.replace(pairs, saddles=pairs.saddles + 1)

        monkeypatch.setattr(cli, "_dynamics_columns", corrupted)
        code, _, err = run_main(["pairs", "--method", "both"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 3
        assert "divergence" in err

    def test_same_pairs_is_the_signature_comparison(self):
        # reference: the sets of (min, saddle, value) tuples the CLI compared before
        for f in tie_heavy_fields(6151, 60, GRIDS_4D):
            per, dyn = _persistence_columns(f), _dynamics_columns(f)
            m0, birth = dyn.essential
            variants = [dyn, dataclasses.replace(dyn, essential=None),
                        dataclasses.replace(dyn, essential=((m0 + 1) % f.n_vertices, birth)),
                        dataclasses.replace(dyn, essential=(m0, birth + 1.0))]
            if len(dyn.mins):
                variants.append(dataclasses.replace(dyn, saddles=np.roll(dyn.saddles, 1) + 1))
                variants.append(dataclasses.replace(dyn, values=dyn.values * -1.0))
                variants.append(dataclasses.replace(
                    dyn, **{k: getattr(dyn, k)[1:] for k in PAIR_COLUMNS}))
            for other in variants:
                expected = pairing_signature(per.to_list()) == pairing_signature(other.to_list())
                assert (_divergent_minimum(f, per, other, False)[0] is None) == expected


class TestFieldCommands:
    def test_filter_keeps_csv_format(self, capsys, monkeypatch):
        code, out, _ = run_main(["filter", "--t", "3.5"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 0
        assert [float(x) for x in out.split()] == [5, 4, 4, 0, 6]

    def test_filter_collision_is_domain_error(self, capsys, monkeypatch):
        code, _, err = run_main(["filter", "--t", "3"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 1
        assert "3.0" in err

    def test_watershed_csv_labels(self, capsys, monkeypatch):
        code, out, _ = run_main(["watershed"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 0
        assert [float(x) for x in out.split()] == [1, 1, 3, 3, 3]

    def test_watershed_2d_is_pgm(self, capsys, monkeypatch):
        field_nd = "FIELD 2 3 3\n9 8 10 2 7 3 11 12 13\n"
        code, out, _ = run_main(["watershed"], field_nd, capsys, monkeypatch)
        assert code == 0
        assert out.startswith("P2\n3 3\n")
        assert out.split()[4:] == ["3", "3", "5", "3", "3", "5", "3", "3", "5"]

    def test_dynamics_json(self, capsys, monkeypatch):
        code, out, _ = run_main(["dynamics", "--min", "1"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 0
        assert json.loads(out) == {"min_index": 1, "value": 3.0, "witness": 2}

    def test_dynamics_essential_inf(self, capsys, monkeypatch):
        code, out, _ = run_main(["dynamics", "--min", "3"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 0
        assert json.loads(out) == {"min_index": 3, "value": "inf", "witness": None}

    def test_dynamics_on_a_single_vertex(self, capsys, monkeypatch):
        # a grid with no edge: the one vertex is the essential minimum
        code, out, err = run_main(["dynamics", "--min", "0"], "2.5\n", capsys, monkeypatch)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"min_index": 0, "value": "inf", "witness": None}

    def test_dynamics_non_minimum_is_domain_error(self, capsys, monkeypatch):
        code, _, _ = run_main(["dynamics", "--min", "0"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 1

    def test_diagram(self, capsys, monkeypatch):
        code, out, _ = run_main(["diagram"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 0
        assert json.loads(out) == [[1.0, 4.0]]

    def test_diagram_essential_sentinel(self, capsys, monkeypatch):
        code, out, _ = run_main(
            ["diagram", "--essential-death", "max"], SIGNAL_CSV, capsys, monkeypatch
        )
        assert json.loads(out) == [[1.0, 4.0], [0.0, 6.0]]

    def test_curve(self, capsys, monkeypatch):
        code, out, _ = run_main(["curve"], SIGNAL_CSV, capsys, monkeypatch)
        assert json.loads(out) == {"breakpoints": [3.0], "counts": [2, 1]}

    def test_saliency_json(self, capsys, monkeypatch):
        code, out, _ = run_main(["saliency"], SIGNAL_CSV, capsys, monkeypatch)
        assert json.loads(out)["1,2"] == 3.0

    def test_saliency_as_field(self, capsys, monkeypatch):
        code, out, _ = run_main(["saliency", "--as-field"], SIGNAL_CSV, capsys, monkeypatch)
        assert out.startswith("FIELD 1 9\n")

    def test_saliency_never_builds_the_edge_tuple(self, capsys, monkeypatch):
        def forced(sal):
            raise AssertionError("the CLI built SaliencyMap.edge_values")

        monkeypatch.setattr(SaliencyMap, "edge_values", property(forced))
        field_nd = "FIELD 2 3 3\n9 8 10 2 7 3 11 12 13\n"
        for extra in ([], ["--as-field"]):
            code, out, _ = run_main(["saliency", *extra], field_nd, capsys, monkeypatch)
            assert code == 0 and out

    def test_segment_bundle(self, capsys, monkeypatch):
        code, out, _ = run_main(["segment", "--t", "3.5"], SIGNAL_CSV, capsys, monkeypatch)
        obj = json.loads(out)
        assert obj["region_count"] == 1
        assert obj["filtered"] == [5, 4, 4, 0, 6]
        assert obj["labels"] == [3, 3, 3, 3, 3]

    def test_parse_error_exits_2(self, capsys, monkeypatch):
        code, _, err = run_main(["pairs"], "5\nbogus\n", capsys, monkeypatch)
        assert code == 2
        assert "parse error" in err

    def test_invert_analyzes_maxima(self, capsys, monkeypatch):
        # maxima of [0,4,1,5,0] are vertices 1 and 3; the lower one pairs away
        text = "0\n4\n1\n5\n0\n"
        code, out, _ = run_main(["--invert", "pairs", "--method", "both"], text, capsys, monkeypatch)
        objs = json.loads(out)
        finite = [o for o in objs if o["value"] != "inf"]
        assert finite[0]["min_index"] == 1 and finite[0]["value"] == 3.0


class TestVerifyAndGen:
    def test_verify_ok(self, capsys, monkeypatch):
        code, out, _ = run_main(
            ["verify", "--kind", "uniform_random", "--trials", "5", "--shape", "24",
             "--seed", "3", "--no-oracle"],
            "",
            capsys,
            monkeypatch,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["fields_tested"] == 5 and obj["pairings_identical"] is True

    def test_verify_divergence_exits_3(self, capsys, monkeypatch):
        def corrupted(field):  # the essential pair only
            pairs = _dynamics_columns(field)
            return dataclasses.replace(pairs, **{k: getattr(pairs, k)[:0] for k in PAIR_COLUMNS})

        import dynpers.equivalence as eq

        monkeypatch.setattr(eq, "_dynamics_columns", corrupted)  # verify's dynamics route
        code, out, _ = run_main(
            ["verify", "--trials", "2", "--shape", "12", "--seed", "0", "--no-oracle"],
            "",
            capsys,
            monkeypatch,
        )
        assert code == 3
        assert json.loads(out)["pairings_identical"] is False

    def test_gen_deterministic_bytes(self):
        args = ["gen", "--kind", "uniform_random", "--shape", "8x8", "--seed", "7"]
        a, b = run_cli(args), run_cli(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.startswith("FIELD 2 8 8\n")

    def test_gen_bad_shape_is_domain_error(self, capsys, monkeypatch):
        code, _, _ = run_main(["gen", "--shape", "8xx", "--seed", "1"], "", capsys, monkeypatch)
        assert code == 1


class TestPipes:
    def test_gen_pipe_pairs(self):
        gen = run_cli(["gen", "--kind", "gaussian_mixture", "--shape", "12x12", "--seed", "5"])
        assert gen.returncode == 0
        pairs = run_cli(["pairs", "--method", "both"], stdin=gen.stdout)
        assert pairs.returncode == 0
        objs = json.loads(pairs.stdout)
        assert objs[-1]["value"] == "inf"

    def test_gen_pipe_filter_pipe_watershed(self):
        gen = run_cli(["gen", "--kind", "uniform_random", "--shape", "16", "--seed", "2"])
        filt = run_cli(["filter", "--t", "0.05"], stdin=gen.stdout)
        assert filt.returncode == 0
        ws = run_cli(["watershed"], stdin=filt.stdout)
        assert ws.returncode == 0
        labels = [float(x) for x in ws.stdout.split()]
        assert len(labels) == 16

    def test_byte_determinism_pairs(self):
        a = run_cli(["pairs"], stdin=SIGNAL_CSV)
        b = run_cli(["pairs"], stdin=SIGNAL_CSV)
        assert a.stdout == b.stdout and a.returncode == 0


OVERFLOW_CSV = "1.7e308\n-1.7e308\n1.7e308\n-1.6e308\n1.7e308\n"


class TestHostileInput:
    def test_verify_rejects_nonpositive_trials(self, capsys, monkeypatch):
        for trials in ("-3", "0"):
            code, out, err = run_main(
                ["verify", "--trials", trials, "--shape", "8", "--no-oracle"], "", capsys, monkeypatch
            )
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "--trials" in err

    def test_bom_file_is_parse_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + SIGNAL_CSV.encode("ascii"))
        code, out, err = run_main(["pairs", str(path)], "", capsys, monkeypatch)
        assert code == 2 and out == ""
        assert err.startswith("dynpers: parse error:") and err.count("\n") == 1

    def test_non_ascii_stdin_is_parse_error(self):
        for text in ("\ufeff" + SIGNAL_CSV, "5\n\u0663\n4\n"):  # BOM; Arabic-Indic digit three
            proc = run_cli(["curve"], stdin=text)
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.startswith("dynpers: parse error:")
            assert proc.stderr.count("\n") == 1

    def test_overflowing_range_rejected(self, capsys, monkeypatch):
        for command in ("pairs", "curve"):
            code, out, err = run_main([command], OVERFLOW_CSV, capsys, monkeypatch)
            assert code == 1 and out == ""
            assert err.startswith("dynpers: error:") and err.count("\n") == 1

    def test_csv_separator_control_characters_are_whitespace(self, capsys, monkeypatch):
        # str.strip drops \x1c-\x1f, float() does not; field-nd's split drops them too
        expected = run_main(["pairs"], SIGNAL_CSV, capsys, monkeypatch)
        assert run_main(["pairs"], "5\x1f\n1\n\x1e4\n0\n6\n", capsys, monkeypatch) == expected

    def test_stdin_text_naming_a_file_is_parsed_as_text(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "5").write_text(SIGNAL_CSV, encoding="ascii")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_main(["pairs"], "5", capsys, monkeypatch)
        assert code == 0, err
        assert json.loads(out) == [{"min_index": 0, "birth": 5.0, "value": "inf"}]

    def test_watershed_labels_past_pgm_maxval_round_trip(self, capsys, monkeypatch):
        shape = (257, 256)
        n = shape[0] * shape[1]
        values = -np.abs(np.arange(n) - n // 2).astype(float)  # minima at 0 and n - 1
        text = "FIELD 2 257 256\n" + "".join(f"{v!r}\n" for v in values.tolist())
        code, out, err = run_main(["watershed"], text, capsys, monkeypatch)
        assert code == 0, err
        assert out.startswith("FIELD 2 257 256\n")
        labels = parse_field(out).values
        expected = watershed(ScalarField(shape, values)).labels
        assert labels.tolist() == list(expected) and labels.max() == n - 1

    @pytest.mark.parametrize(
        "shape",
        ["4611686018427387904", "99999999999999999999", "2147483648x2147483648"],
    )
    def test_oversized_shape_is_domain_error(self, shape, capsys, monkeypatch):
        # numpy refuses these without allocating anything
        for argv in (
            ["gen", "--shape", shape, "--seed", "0"],
            ["verify", "--shape", shape, "--trials", "1", "--no-oracle"],
        ):
            code, out, err = run_main(argv, "", capsys, monkeypatch)
            assert code == 1 and out == ""
            assert err.startswith("dynpers: error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--shape", "5", "--seed", "-1"], "seed must be >= 0"),
            (["verify", "--shape", "5", "--trials", "1", "--seed", "-5"], "seed must be >= 0"),
            (["gen", "--shape", "5", "--seed", "1", "--amp=-1e308:1e308"], "bad amplitude range"),
        ],
    )
    def test_negative_seed_and_overflowing_amplitude_are_domain_errors(
        self, argv, message, capsys, monkeypatch
    ):
        code, out, err = run_main(argv, "", capsys, monkeypatch)
        assert code == 1 and out == ""
        assert err.startswith("dynpers: error:") and err.count("\n") == 1 and message in err

    def test_out_of_memory_is_domain_error(self, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "generate", exhausted)
        code, out, err = run_main(["gen", "--shape", "8", "--seed", "0"], "", capsys, monkeypatch)
        assert code == 1 and out == ""
        assert err.startswith("dynpers: error:") and err.count("\n") == 1


ASCII_TEXT = st.text(st.characters(max_codepoint=127), max_size=60)
NUMBERS = st.one_of(
    st.integers(-3, 9).map(str),
    st.floats().map(repr),  # nan and inf included
    st.sampled_from(["-0", "1e308", "-1.7e308", "5e-324", "1_0", "0x1", "65536", "1e400"]),
)


@st.composite
def field_texts(draw):
    """Field text in one of the three formats, often valid, sometimes with a
    stretch of arbitrary ASCII spliced in."""
    fmt = draw(st.sampled_from(["csv-1d", "field-nd", "pgm-2d"]))
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3 if fmt == "field-nd" else 2))
    n = math.prod(shape)
    if fmt == "pgm-2d":
        shape = shape + [1] if len(shape) == 1 else shape
        maxval = draw(st.sampled_from([1, 9, 255, 65535]))
        pixels = draw(st.lists(st.integers(0, maxval).map(str), min_size=n, max_size=n))
        text = f"P2\n# comment\n{shape[1]} {shape[0]}\n{maxval}\n" + " ".join(pixels) + "\n"
    else:
        values = draw(st.lists(NUMBERS, min_size=n, max_size=n))
        sep = draw(st.sampled_from(["\n", " ", "\t", "\r\n"]))
        head = "FIELD " + " ".join(map(str, [len(shape)] + shape)) + "\n"
        text = (head if fmt == "field-nd" else "") + sep.join(values) + "\n"
    junk = draw(st.one_of(st.just(""), ASCII_TEXT))
    at = draw(st.integers(0, len(text)))
    return text[:at] + junk + text[at:]


STDIN_TEXT = st.one_of(ASCII_TEXT, field_texts())

# every subcommand that reads a field; True where the output is JSON
HOSTILE_COMMANDS = {
    "pairs": (["pairs"], True),
    "dynamics": (["dynamics", "--min", "1"], True),
    "diagram": (["diagram", "--essential-death", "max"], True),
    "curve": (["curve"], True),
    "filter": (["filter", "--t", "0.75"], False),
    "watershed": (["watershed"], False),
    "saliency": (["saliency"], True),
    "saliency-field": (["saliency", "--as-field"], False),
    "segment": (["segment", "--t", "0.75"], True),
}


class TestHostileStdin:
    """Arbitrary ASCII on stdin: valid output and exit 0, or exit 1/2 with one
    stderr line; never a traceback."""

    @pytest.mark.parametrize("name", sorted(HOSTILE_COMMANDS))
    @settings(max_examples=50)
    @given(text=STDIN_TEXT, flags=st.sampled_from([[], ["--invert"], ["--connectivity", "full"]]))
    def test_exits_cleanly(self, name, text, flags):
        argv, emits_json = HOSTILE_COMMANDS[name]
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(flags + argv)
        finally:
            sys.stdin = stdin
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == "" and out.endswith("\n")
            json.loads(out) if emits_json else parse_field(out)
        else:
            assert code in (1, 2) and out == ""
            assert err.startswith("dynpers: ") and err.count("\n") == 1, err


class TestSharedParser:
    FIELD = "FIELD 2 4 5\n" + "".join(
        f"{v}\n" for v in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4]
    )

    def outputs(self, argvs, capsys, monkeypatch, fresh):
        out = []
        for argv in argvs:
            if fresh:
                cli._shared_parser.cache_clear()
            out.append(run_main(argv, self.FIELD, capsys, monkeypatch))
        return out

    @pytest.mark.parametrize(
        "first, second",
        [
            (["--invert", "pairs"], ["pairs"]),
            (["--connectivity", "full", "pairs"], ["pairs"]),
            (["pairs", "--method", "dynamics"], ["pairs"]),
            (["pairs"], ["--connectivity", "full", "--invert", "curve"]),
        ],
    )
    def test_back_to_back_calls_match_fresh_ones(self, first, second, capsys, monkeypatch):
        fresh = self.outputs([first, second], capsys, monkeypatch, fresh=True)
        cli._shared_parser.cache_clear()
        shared = self.outputs([first, second], capsys, monkeypatch, fresh=False)
        assert shared == fresh
        assert vars(cli._shared_parser().parse_args(second)) == vars(
            cli.build_parser().parse_args(second)
        )

    def test_parser_built_once(self, capsys, monkeypatch):
        cli._shared_parser.cache_clear()
        parser = cli._shared_parser()
        run_main(["pairs"], self.FIELD, capsys, monkeypatch)
        assert cli._shared_parser() is parser
        assert cli.build_parser() is not parser


# A 5x6 field of -0.0, 0.0 and 1.0 whose finite pair values hold both 0.0
# and -0.0, -0.0 first in pair order, so the curve's zero breakpoint is -0.0.
SIGNED_ZERO = "FIELD 2 5 6\n" + "\n".join(
    "1.0 1.0 -0.0 1.0 0.0 0.0 0.0 -0.0 1.0 -0.0 -0.0 0.0 0.0 0.0 -0.0 "
    "-0.0 -0.0 -0.0 -0.0 1.0 -0.0 0.0 1.0 -0.0 -0.0 0.0 -0.0 1.0 -0.0 1.0".split()
) + "\n"


def _golden_inputs():
    """Three small seeded fields: 1D with ties, 2D with plateaus, 3D full connectivity;
    a signed-zero field; and no input at all, for ``verify``."""
    rng = np.random.default_rng(2024)
    ties_1d = "".join(f"{v}\n" for v in rng.integers(0, 4, size=40).tolist())
    plateaus_2d = "FIELD 2 12 10\n" + "".join(
        f"{v}\n" for v in rng.integers(0, 3, size=120).tolist()
    )
    full_3d = "FIELD 3 5 4 6\n" + "".join(
        f"{v!r}\n" for v in np.round(rng.uniform(-1.0, 1.0, size=120), 3).tolist()
    )
    return {"1d-ties": ([], ties_1d), "2d-plateaus": ([], plateaus_2d),
            "3d-full": (["--connectivity", "full"], full_3d), "signed-zero": ([], SIGNED_ZERO),
            "no-input": ([], "")}


GOLDEN_COMMANDS = {
    "pairs": ["pairs", "--method", "both"],
    "curve": ["curve"],
    "saliency": ["saliency"],
    "segment": ["segment", "--t", "1.5"],
    "segment-invert": ["--invert", "segment", "--t", "1.5"],
    "segment-half": ["segment", "--t", "0.5"],
    "filter": ["filter", "--t", "1.5"],
    "watershed": ["watershed"],
    "diagram": ["diagram"],
    "diagram-max": ["diagram", "--essential-death", "max"],
    "dynamics-18": ["dynamics", "--min", "18"],  # a minimum of 3d-full, value about 0.077
    "verify": ["verify", "--shape", "6x5", "--trials", "2", "--seed", "3"],
}

# sha256 of stdout; these outputs must stay byte-identical.
GOLDEN_DIGESTS = {
    "pairs/1d-ties": "c2d396c8a5a399ba98a44fe7cb20429cd01bd92be8f9c79ed76e9a25a460077d",
    "curve/1d-ties": "0880d4276f5871d817cbca8a8a9e357e71475e6760b7c1edda35731ed4439810",
    "saliency/1d-ties": "43e34e4c79bc7b392095abcad946c10afca9cb5c1f6d539c5fbeb101e7b167f5",
    "segment/1d-ties": "8387bcc48290d96a1859e0d3124142bb0c734bcb747d781d9099cb8eb8314ac3",
    "filter/1d-ties": "c67b1755e7c42019c4882d0fb4b3b8064b1b67e12e35fe278129d83878772dc7",
    "watershed/1d-ties": "4c1fcde768d1f956994ea961b030b5bc8e43fc13977f3e7ffe92cd4aeb6f26d8",
    "pairs/2d-plateaus": "605798d2e508b2b9c869fce19f58156b0349ec683c8e88b865d7b3cc5f333f35",
    "curve/2d-plateaus": "4e3564e9d97ddbc2ecdcc0789d69f8be60123b6593e1a61d75845802fb00511c",
    "saliency/2d-plateaus": "d1230a439b37dfc5bd980828a730d33fc3455219b930e8c4bbee5df57a510aa1",
    "segment/2d-plateaus": "7f10b982a521766ac72b2c856d86a434f3bb8838ed3c3eb3acce991591f21c9a",
    "filter/2d-plateaus": "8ca8d375c6ce59597cbd1fb243e9e2655d7276243f824ccb9fad1982f3d374e1",
    "watershed/2d-plateaus": "279261638cd78917cd0879fff82563080eeb58be0509e11324cf03d1179652f7",
    "pairs/3d-full": "f04994ae8d325dabf379d198fe45b5bffd55c8ec8de01ecc45452633c2045847",
    "curve/3d-full": "d80c7a3381331c06fd0870a273e9a6a54581c76f2b821f251ea662d84b6004ed",
    "saliency/3d-full": "d083a744ed76ef37fef9207d422fce48594f15c66380a08b2cf435179140c8e9",
    "segment/3d-full": "e2b1d4a7b3c54be60aaf6bcbcc618becd3017ac35230b6e8f0bc2ee2d85dd541",
    "filter/3d-full": "e7dffdd8d2189b7ae2d5adc19a369ad12147f3caf3204da1f9ee081ac2dd9226",
    "watershed/3d-full": "1ac1c761bad114453424593ef805ed486b37f358e4097a0a78d2769349ec6eb3",
    "diagram/1d-ties": "5ffd05603f2bab31490b71e25a30f8eee033a67303f334040777e67b295708e1",
    "diagram/2d-plateaus": "9334c90626e76a6e512527cacf8d146aba2396c329b2c8e695968c0517b87494",
    "diagram/3d-full": "e988666dadd8368d55ff3e6006954dd1285712dd1ea800d3c84e64e86417d5da",
    "diagram-max/1d-ties": "7142760401b40919172947de426318b651c3d24940d0d5fc36c881e91a2e68d5",
    "diagram-max/2d-plateaus": "82cf6481bf47f0c5ff169876b3de1a8025fdc1b8c95f82554c5f621801294341",
    "diagram-max/3d-full": "efcc2679b75dbb6fc52e851817c3c337371e4b8e19629d840f6534f6e6f041f9",
    "dynamics-18/3d-full": "27b69b6c6aaaa4084afa01f933a08e87c22737c8b8fb736d8981d495c1a6ba10",
    "verify/no-input": "bcf436b86ee071b0f1ef90f8ee19bdcd74048f4bf10657ccf6c6d3b93500df2e",
    "pairs/signed-zero": "279c2fbbf749b5827b55d5c14d4d9df35e565f42aa136686fd516beb849c4145",
    "curve/signed-zero": "18ba6f3b7836447f0b5d852ad7331b8265615b7972c1f367414932a9128efbb2",
    "segment/signed-zero": "5b30a7c5694b981ae2b6c5e9f07fa4f1ad7c20c695034dfe7fd072f3e2701e94",
    "segment-half/signed-zero": "57ad180c15d12c50037bf5c848fe5ed9d2478c4fa4b6c098ca5c325d9a982e3b",
    "saliency/signed-zero": "de98634c407664ea8f822e76db1ad5bf319df6de3ddbcfbf76d4b24ba17afd26",
    "filter/signed-zero": "e5a1e8605deccbca89b94115633bb387a5fe04db4a21a97ff319de16991a12dd",
    "diagram/signed-zero": "a2e2faa561752ea028e66b9c788e74d87026c0160803b4b6606c809c2e415727",
    "diagram-max/signed-zero": "3c718d4e29dedb59f88c27a6ffab6383ebd208538a170b1eae052ae207b3393d",
    "segment-invert/2d-plateaus": "ddc1fbd97c1d53ce36cf4f125f886ec272357c87841d7e5182c2572e9632f501",
    "segment-invert/signed-zero": "e07c0f73625d6800ae03cc03e47979d68e89af723de958d2e3bf647884dd5e13",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_stdout_digest(self, name, capsys, monkeypatch):
        command, field = name.split("/")
        prefix, text = _golden_inputs()[field]
        code, out, err = run_main(prefix + GOLDEN_COMMANDS[command], text, capsys, monkeypatch)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == GOLDEN_DIGESTS[name]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),  # past int64
    FINITE,
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.5, 1.7976931348623157e308]),
    st.text(),  # escapes, non-ASCII, surrogates
    st.sampled_from(["inf", 'a"b\\c', "%s%%", "caf\u00e9", "\n\t\x00"]),
)


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=6),
            st.dictionaries(st.text(max_size=4), kids, max_size=5),
            st.lists(FINITE, min_size=3, max_size=12),  # a float column
            st.lists(st.one_of(FINITE, st.integers(), st.booleans()), max_size=8),
            st.lists(  # records with two key sets, as pairs_to_json writes them
                st.one_of(
                    st.fixed_dictionaries({"min_index": kids, "birth": FINITE, "value": kids}),
                    st.fixed_dictionaries({"a%": st.integers(), '"b"': kids}),
                ),
                max_size=8,
            ),
            st.lists(st.lists(FINITE, min_size=2, max_size=2), max_size=8),  # [b, d] rows
            st.lists(st.lists(kids, max_size=2), max_size=6),  # rows of mixed widths
        ),
        max_leaves=40,
    )


JSON_TREES = _json_trees(SCALARS)

COLUMN_FLOATS = st.one_of(FINITE, st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.1, 1e16]))
INT64 = st.integers(-(2**63), 2**63 - 1)


def _float_array(size):
    return st.lists(COLUMN_FLOATS, min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=np.float64)
    )


def _int_array(size):
    return st.lists(INT64, min_size=size, max_size=size).map(lambda v: np.array(v, dtype=np.int64))


@st.composite
def _float_rows(draw):
    """A ``(rows, width)`` float or int64 array, either extent possibly 0."""
    rows, width = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    size = rows * width
    return draw(st.one_of(_float_array(size), _int_array(size))).reshape(rows, width)


@st.composite
def _records(draw, kids):
    """Int and float columns under keys that need escaping, then plain values."""
    keys = draw(st.lists(st.sampled_from(["a%", '"b"', "café", "\n\t", "%d", "v"]),
                         min_size=1, max_size=4, unique=True))
    size = draw(st.integers(0, 6))
    columns = tuple(draw(st.one_of(_float_array(size), _int_array(size))) for _ in keys)
    return cli._Records(tuple(keys), columns, draw(st.lists(kids, max_size=3)))


@st.composite
def _edge_maps(draw):
    """Distinct ``(u, v)`` keys, so the plain dict keeps every member."""
    edges = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=8,
                          unique=True))
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    return cli._EdgeMap(ends[:, 0], ends[:, 1], draw(_float_array(len(edges))))


# The column forms the commands emit, each possibly empty, at random depths
# inside str-keyed dicts and lists.
COLUMN_TREES = st.recursive(
    st.one_of(
        SCALARS,
        st.integers(0, 9).flatmap(_float_array),
        st.integers(0, 9).flatmap(_int_array),
        _float_rows(),
    ),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
        _records(kids),
        _edge_maps(),
    ),
    max_leaves=20,
)


class TestJsonText:
    @settings(max_examples=200)
    @given(JSON_TREES)
    def test_matches_json_dumps(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2, allow_nan=False)

    @settings(max_examples=100)
    @given(JSON_TREES, st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 3))
    def test_non_finite_raises_json_error(self, obj, bad, where):
        tree = [[obj, bad], {"v": [1.0, bad]}, [[0.5, bad]] * 3, bad][where]
        with pytest.raises(ValueError) as expected:
            json.dumps(tree, indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            json_text(tree)
        assert str(got.value) == str(expected.value)

    def test_signed_zeros_and_repeats_keep_their_bits(self):
        column = [0.0, -0.0, 0.1, 0.1, -0.0, 5e-324, 1e16, 0.0] * 4
        obj = {"c": column, "rows": [[b, -b] for b in column]}
        assert json_text(obj) == json.dumps(obj, indent=2, allow_nan=False)

    def test_column_forms_match_json_dumps_of_their_plain_value(self):
        rng = np.random.default_rng(7)
        floats = rng.choice([0.0, -0.0, 0.1, 1e16, 5e-324, -2.5], size=9)
        ints = rng.integers(0, 99, size=9)
        forms = [
            floats,
            ints,
            floats[:0],
            cli._Records(("a%", '"b"'), (ints, floats), [{"a%": 1, "v": "inf"}]),
            cli._Records(("k",), (ints[:0],), [{"k": -0.0}]),
            cli._Records(("k",), (ints[:0],), []),
            cli._EdgeMap(ints, ints + 1, floats),
            cli._EdgeMap(ints[:0], ints[:0], floats[:0]),
        ]
        obj = {"forms": forms, "nested": [forms[3], {"e": forms[6], "x": 0.1}], "f": floats[1]}
        plain = json.dumps(obj, indent=2, allow_nan=False, default=cli._plain)
        assert json_text(obj) == plain
        for form in forms:
            assert json_text(form) == json.dumps(form, indent=2, default=cli._plain)
        with pytest.raises(ValueError):
            json_text({"bad": cli._EdgeMap(ints[:1], ints[:1], np.array([math.inf]))})

    @settings(max_examples=200)
    @given(COLUMN_TREES)
    def test_column_forms_at_any_depth_match_json_dumps(self, obj):
        plain = json.dumps(obj, indent=2, allow_nan=False, default=cli._plain)
        assert json_text(obj) == plain

    @settings(max_examples=100)
    @given(st.integers(1, 4), st.integers(1, 3), st.data(),
           st.sampled_from([math.nan, math.inf, -math.inf]), st.lists(st.booleans(), max_size=4))
    def test_non_finite_in_a_nested_2d_array_raises_json_error(self, rows, width, data, bad,
                                                               wraps):
        values = data.draw(_float_array(rows * width))
        values[data.draw(st.integers(0, values.size - 1))] = bad
        tree = values.reshape(rows, width)
        for in_dict in wraps:
            tree = {"k": tree} if in_dict else [0.5, tree]
        with pytest.raises(ValueError) as expected:
            json.dumps(tree, indent=2, allow_nan=False, default=cli._plain)
        with pytest.raises(ValueError) as got:
            json_text(tree)
        assert str(got.value) == str(expected.value)


def _field_header(shape) -> str:
    return f"FIELD {len(shape)} {' '.join(map(str, shape))}\n"


def _cli_output(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _public_outputs(field, command, t, invert):
    """What the CLI printed before it wrote by columns, from the public objects."""

    def dumps(obj):
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"

    if command == "pairs":
        return dumps(pairs_to_json(pair_by_persistence(field)))
    if command == "curve":
        return dumps(granulometric_curve(pair_by_persistence(field)).to_json())
    if command == "saliency":
        return dumps(saliency(field).to_json())
    if command == "segment":
        filtered, labels, pairs, curve = segment_pipeline(field, t)
        sign = -1.0 if invert else 1.0
        return dumps({
            "threshold": t,
            "region_count": labels.region_count,
            "labels": list(labels.labels),
            "filtered": (sign * filtered.values).tolist(),
            "pairs": pairs_to_json(pairs),
            "curve": curve.to_json(),
        })
    values = filter_dynamics(field, t).values
    values = -values if invert else values
    return _field_header(field.shape) + "\n".join(map(repr, values.tolist())) + "\n"


PROPERTY_GRIDS = [((11,), "axis"), ((4, 5), "axis"), ((4, 5), "full"), ((3, 2, 3), "axis"),
                  ((3, 2, 3), "full")]


@st.composite
def property_fields(draw):
    """Few-level integer fields, {-0.0, 0.0, 1.0} fields and +-1e16/+-1 mixtures."""
    shape, conn = draw(st.sampled_from(PROPERTY_GRIDS))
    n = math.prod(shape)
    levels = draw(st.sampled_from([
        [0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], [-0.0, 0.0, 1.0],
        [-1e16, 1e16, -1.0, 1.0, 0.0, -0.0],
    ]))
    values = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    return shape, conn, values


class TestBytesAgainstPublicObjects:
    """The CLI writes from columns; its bytes equal ``json.dumps`` of the public
    objects (and, for ``filter``, the ``repr`` lines) that it used to print."""

    COMMANDS = {
        "pairs": ["pairs", "--method", "both"],
        "curve": ["curve"],
        "segment": ["segment", "--t", None],
        "saliency": ["saliency"],
        "filter": ["filter", "--t", None],
    }

    def check(self, shape, conn, values, command, t, invert):
        field = ScalarField(shape, -np.array(values) if invert else values, conn)
        try:
            expected = _public_outputs(field, command, t, invert)
        except UsageError as exc:  # a threshold equal to a pair value
            assert command in ("segment", "filter") and "collides" in str(exc)
            expected = None
        argv = ["--connectivity", conn] + (["--invert"] if invert else [])
        argv += [repr(t) if a is None else a for a in self.COMMANDS[command]]
        text = _field_header(shape) + "".join(f"{v!r}\n" for v in values)
        code, out, err = _cli_output(argv, text)
        if expected is None:
            assert code == 1 and out == ""
        else:
            assert (code, err) == (0, "") and out == expected

    @settings(max_examples=150)
    @given(property_fields(), st.sampled_from(sorted(COMMANDS)),
           st.sampled_from([0.5, 1.5, 2.5, 1e16]), st.booleans())
    def test_property(self, grid_field, command, t, invert):
        self.check(*grid_field, command, t, invert)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("invert", [False, True])
    def test_signed_zero_pair_values(self, command, invert):
        field = parse_field(SIGNED_ZERO)
        zeros = {repr(p.value) for p in pair_by_persistence(field) if p.value == 0}
        assert zeros == {"0.0", "-0.0"}
        self.check(field.shape, "axis", field.values.tolist(), command, 0.5, invert)


class TestColumnarPaths:
    FIELD = "FIELD 2 4 5\n" + "".join(
        f"{v}\n" for v in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4]
    )

    def test_persistence_route_builds_no_pair_object_or_public_json(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the CLI built a per-pair object or called a public writer")

        monkeypatch.setattr(pairing, "PersistencePair", forbidden)
        for module, name in ((pairing, "pairs_to_json"), (pairing, "pair_by_persistence"),
                             (morphology, "granulometric_curve"), (morphology, "segment_pipeline")):
            monkeypatch.setattr(module, name, forbidden)
        for cls in (SaliencyMap, GranulometricCurve):
            monkeypatch.setattr(cls, "to_json", forbidden)
        for argv in (["pairs"], ["pairs", "--method", "persistence"],
                     ["pairs", "--method", "dynamics"], ["curve"],
                     ["segment", "--t", "1.5"], ["--invert", "segment", "--t", "1.5"],
                     ["diagram", "--essential-death", "max"], ["saliency"]):
            code, out, err = run_main(argv, self.FIELD, capsys, monkeypatch)
            assert code == 0 and err == "" and out, argv

    def test_dense_commands_build_no_tuple_view(self, capsys, monkeypatch):
        # the merge tree's and the watershed's consumers read their numpy
        # columns; the public tuples are built only for callers that ask
        def forbidden(self):
            raise AssertionError("a command built a public tuple view")

        for name in ("saddles", "survivor_mins", "dying_mins", "levels", "gates", "minima",
                     "events"):
            monkeypatch.setattr(pairing.MergeTree, name, property(forbidden))
        monkeypatch.setattr(morphology.WatershedLabels, "labels", property(forbidden))
        for argv in (["segment", "--t", "1.5"], ["saliency"], ["curve"],
                     ["pairs", "--method", "both"], ["filter", "--t", "1.5"], ["watershed"],
                     ["verify", "--trials", "1", "--shape", "6x7"]):
            code, out, err = run_main(argv, self.FIELD, capsys, monkeypatch)
            assert code == 0 and err == "" and out, argv

    def test_one_vertex_field_with_fourteen_axes(self, capsys, monkeypatch):
        # a cheap guard first: with offsets along extent-1 axes, the request
        # below would build 3**14 - 1 of them and run out of memory
        assert offset_slices((1,) * 8, Connectivity.FULL) == []
        text = "FIELD 14 " + " ".join(["1"] * 14) + "\n0\n"
        code, out, err = run_main(["--connectivity", "full", "pairs"], text, capsys, monkeypatch)
        assert (code, err) == (0, "")
        assert json.loads(out) == [{"min_index": 0, "birth": 0.0, "value": "inf"}]
        for argv in (["watershed"], ["saliency"], ["segment", "--t", "1"], ["curve"]):
            code, out, err = run_main(["--connectivity", "full"] + argv, text, capsys, monkeypatch)
            assert (code, err) == (0, "") and out

    def test_dense_commands_never_import_numpy_ma(self, tmp_path):
        # np.unique without return_inverse imports numpy.ma on numpy 2.4, and
        # that import raises the benchmark's peak RSS by about 5 MB
        script = """
import sys
import numpy as np
import dynpers.cli as cli
rng = np.random.default_rng(0)
lowest = {}
for name, shape in (("d2", (20, 20)), ("d3", (6, 6, 6))):
    values = rng.uniform(size=int(np.prod(shape))).tolist()
    lowest[name] = values.index(min(values))
    with open(name, "w") as fh:
        fh.write("FIELD %d %s\\n" % (len(shape), " ".join(map(str, shape))))
        fh.write("".join("%r\\n" % v for v in values))
for argv in (["segment", "--t", "0.1234567"], ["saliency"], ["curve"], ["pairs", "--method", "both"],
             ["filter", "--t", "0.1234567"], ["watershed"],
             ["diagram", "--essential-death", "max"], ["dynamics", "--min", str(lowest["d2"])]):
    assert cli.main(argv + ["d2", "--output", "out"]) == 0
assert cli.main(["--connectivity", "full", "pairs", "--method", "both", "d3", "--output", "out"]) == 0
with open("q2", "w") as fh:  # integer levels: plateaus with several exits
    fh.write("FIELD 2 20 20\\n" + "".join("%d\\n" % v for v in rng.integers(0, 4, size=400)))
for argv in (["watershed"], ["saliency"], ["segment", "--t", "1.5"]):
    assert cli.main(argv + ["q2", "--output", "out"]) == 0
for conn, shape in (("axis", "20x20"), ("full", "6x6x6")):  # verify with the path oracle
    assert cli.main(["--connectivity", conn, "verify", "--trials", "1", "--shape", shape,
                     "--output", "out"]) == 0
print("numpy.ma" in sys.modules)
"""
        cache = tmp_path / "pycache"
        cache.mkdir()
        env = dict(os.environ, PYTHONPYCACHEPREFIX=str(cache))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_traced_bench_commands_run(self, tmp_path):
        # bench/run.py --trace 1 wraps dynpers functions by name and reads
        # MergeTree.events; a rename there would otherwise break it silently
        bench = Path(__file__).resolve().parent.parent / "bench"
        script = f"""
import sys
sys.path.insert(0, {str(bench)!r})
import numpy as np
from spans import Tracer
from workloads import DENSE_COMMANDS
main = Tracer().install()
values = np.random.default_rng(0).uniform(size=144).tolist()
with open("d2", "w") as fh:
    fh.write("FIELD 2 12 12\\n" + "".join("%r\\n" % v for v in values))
for argv in [*DENSE_COMMANDS, ("saliency", "--as-field")]:
    assert main([*argv, "d2", "--output", "out"]) == 0, argv
argv = ["--connectivity", "full", "verify", "--trials", "1", "--shape", "4x4x4", "--output", "out"]
assert main(argv) == 0, argv
"""
        cache = tmp_path / "pycache"  # keeps bytecode out of bench/
        cache.mkdir()
        env = dict(os.environ, PYTHONPYCACHEPREFIX=str(cache))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


R = formats._ROWS


def _writer_forms(size):
    """Each output form the writer slices, ``size`` rows long."""
    rng = np.random.default_rng(size)
    floats = rng.choice([0.0, -0.0, 0.1, 1e16, 5e-324, -2.5, 1 / 3], size)
    ints = rng.integers(-5, 10**6, size)
    ends = np.arange(size)
    keys = ("min_index", "birth", "value")
    records = cli._Records(keys, (ints, floats, floats), [])
    return {
        "floats": floats,
        "ints": ints,
        "uint64-above-2**63": rng.integers(2**63, 2**64, size, dtype=np.uint64),
        "diagram": np.stack((floats, floats + 1.0), axis=1),
        "1-wide": floats[:, None],
        "3-wide": np.stack((floats, -floats, floats / 3), axis=1),
        "2d-int64": np.stack((ints, -ints), axis=1),
        "records": records,
        "records-one-key": cli._Records(("min_index",), (ints,), []),
        "records-rest": cli._Records(keys, (ints, floats, floats),
                                     [{"min_index": 0, "birth": 0.5, "value": "inf"}]),
        "edge-map": cli._EdgeMap(ends, ends + 1, floats),
        "nested": {"threshold": 0.5, "labels": ints, "filtered": floats, "pairs": records,
                   "curve": {"breakpoints": floats, "counts": ints}, "edges": {"e": [
                       cli._EdgeMap(ends, ends + 1, floats)]}},
    }


class TestSlicedJsonWriter:
    @pytest.mark.parametrize("size", sorted({0, 1, R - 1, R, R + 1, 2 * R + 1,
                                             4095, 4096, 4097, 8193}))
    def test_every_form_equals_json_dumps_to_a_file_and_to_stdout(self, size, tmp_path, capsys):
        for name, obj in _writer_forms(size).items():
            expected = json.dumps(obj, indent=2, allow_nan=False, default=cli._plain) + "\n"
            path = tmp_path / "out.json"
            cli._emit_json(obj, str(path))
            assert path.read_text(encoding="ascii") == expected, name
            cli._emit_json(obj, "-")
            assert capsys.readouterr().out == expected, name

    def test_memory_stays_below_a_quarter_of_the_output(self, tmp_path):
        # the whole text would take at least the output's size
        n = 64 * R
        rng = np.random.default_rng(3)
        ends = np.arange(n)
        edges = cli._EdgeMap(ends, ends + 1, rng.uniform(size=n))
        field = ScalarField((n,), rng.uniform(size=n))
        path = tmp_path / "out.txt"
        for write in (lambda: cli._emit_json(edges, str(path)),
                      lambda: cli._emit_field(field, str(path), "field-nd")):
            tracemalloc.start()
            try:
                write()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < path.stat().st_size / 4


class TestWriterSliceMemory:
    def test_a_slice_of_pair_records_stays_small(self, tmp_path):
        # 5000 pair records of distinct floats, about 0.75 MB of text: the writer's
        # traced peak read 2.5 MB with 4096-row slices and 0.7 MB with 1024-row ones
        n = 5000
        rng = np.random.default_rng(17)
        ints, floats = rng.permutation(n), rng.uniform(size=(3, n))
        records = cli._Records(pairing.PAIR_KEYS, (ints, floats[0], ints, floats[1], floats[2]),
                               [{"min_index": 0, "birth": 0.5, "value": "inf"}])
        path = tmp_path / "pairs.json"
        tracemalloc.start()
        try:
            cli._emit_json(records, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20


class TestRefusedRequests:
    NEGATIVE_2D = "FIELD 2 2 2\n-1 0 1 2\n"

    @pytest.mark.parametrize("argv, text", [
        (["filter", "--t", "3"], SIGNAL_CSV),  # the pair value of minimum 1
        (["filter", "--t", "100", "--output-format", "pgm-2d"], NEGATIVE_2D),
        (["filter", "--t", "100", "--output-format", "csv-1d"], NEGATIVE_2D),
    ], ids=["collision", "pgm-negative", "csv-2d"])
    def test_leave_no_output_file(self, argv, text, tmp_path, capsys, monkeypatch):
        path = tmp_path / "out.txt"
        code, out, err = run_main(argv + ["--output", str(path)], text, capsys, monkeypatch)
        assert (code, out) == (1, "") and err.startswith("dynpers: error:")
        assert not path.exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_main(["pairs", "--output", str(path)], SIGNAL_CSV, capsys, monkeypatch)
        assert (code, out) == (2, "") and err.startswith("dynpers: i/o error:")


def test_segment_bytes_do_not_depend_on_the_shared_geometry(capsys, monkeypatch):
    text = _golden_inputs()["2d-plateaus"][1]
    argv = ["segment", "--t", "0.5"]
    shared = run_main(argv, text, capsys, monkeypatch)
    monkeypatch.setattr(morphology, "_with_values",
                        lambda field, values: ScalarField(field.shape, values, field.connectivity))
    assert run_main(argv, text, capsys, monkeypatch) == shared
    assert shared[0] == 0
