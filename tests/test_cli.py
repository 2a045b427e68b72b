import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import dynpers.cli as cli
from dynpers import SaliencyMap, ScalarField, pair_by_dynamics, parse_field, watershed

SIGNAL_CSV = "5\n1\n4\n0\n6\n"


def run_cli(argv, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "dynpers.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc


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
        def corrupted(field):
            return [p for p in pair_by_dynamics(field) if p.is_essential]

        monkeypatch.setattr(cli, "pair_by_dynamics", corrupted)
        code, _, err = run_main(["pairs", "--method", "both"], SIGNAL_CSV, capsys, monkeypatch)
        assert code == 3
        assert "divergence" in err


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
        def corrupted(field):
            return [p for p in pair_by_dynamics(field) if p.is_essential]

        import dynpers.equivalence as eq

        monkeypatch.setattr(eq, "pair_by_dynamics", corrupted)
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

    def test_out_of_memory_is_domain_error(self, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "generate", exhausted)
        code, out, err = run_main(["gen", "--shape", "8", "--seed", "0"], "", capsys, monkeypatch)
        assert code == 1 and out == ""
        assert err.startswith("dynpers: error:") and err.count("\n") == 1


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


def _golden_inputs():
    """Three small seeded fields: 1D with ties, 2D with plateaus, 3D full connectivity."""
    rng = np.random.default_rng(2024)
    ties_1d = "".join(f"{v}\n" for v in rng.integers(0, 4, size=40).tolist())
    plateaus_2d = "FIELD 2 12 10\n" + "".join(
        f"{v}\n" for v in rng.integers(0, 3, size=120).tolist()
    )
    full_3d = "FIELD 3 5 4 6\n" + "".join(
        f"{v!r}\n" for v in np.round(rng.uniform(-1.0, 1.0, size=120), 3).tolist()
    )
    return {"1d-ties": ([], ties_1d), "2d-plateaus": ([], plateaus_2d),
            "3d-full": (["--connectivity", "full"], full_3d)}


GOLDEN_COMMANDS = {
    "pairs": ["pairs", "--method", "both"],
    "curve": ["curve"],
    "saliency": ["saliency"],
    "segment": ["segment", "--t", "1.5"],
    "filter": ["filter", "--t", "1.5"],
    "watershed": ["watershed"],
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
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_stdout_digest(self, name, capsys, monkeypatch):
        command, field = name.split("/")
        prefix, text = _golden_inputs()[field]
        code, out, err = run_main(prefix + GOLDEN_COMMANDS[command], text, capsys, monkeypatch)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == GOLDEN_DIGESTS[name]
