import hashlib
import json
import time

import pytest

from pbsg.cli import main

from conftest import PRIME_CYCLES, cycle_permutation

GENS_SWAP = {"degree": 2, "generators": [[2, 1]], "inverse_closed": True}
GENS_SHIFT = {"degree": 2, "generators": [[2, None]], "inverse_closed": False}
#: the criterion-6 generator set: two generators, a closure of more elements
GENS_CRITERION_6 = {"degree": 3, "generators": [[3, 1, None], [1, None, 2]],
                    "inverse_closed": False}
TILING_OK = {"colors": 1, "width": 1, "tiles": [{"n": 1, "e": 1, "s": 1, "w": 1}]}
TILING_BAD = {"colors": 2, "width": 1, "tiles": [{"n": 1, "e": 1, "s": 2, "w": 1}]}
#: the criterion-6 tiling: one column, tile 1 above tile 2
TILING_CRITERION_6 = {"colors": 2, "width": 2,
                      "tiles": [{"n": 1, "e": 1, "s": 2, "w": 1}, {"n": 2, "e": 1, "s": 1, "w": 1}]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestProps:
    def test_single_property_exit_codes(self, tmp_json, capsys):
        path = tmp_json("g.json", GENS_SWAP)
        code, out = run(capsys, "props", path, "--property", "commutative")
        assert code == 0 and "commutative\ttrue" in out
        code, out = run(capsys, "props", path, "--property", "band")
        assert code == 1 and "band\tfalse" in out

    def test_all_properties_table(self, tmp_json, capsys):
        path = tmp_json("g.json", GENS_SHIFT)
        code, out = run(capsys, "props", path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "property\tfast\toracle\twitness"
        assert len(lines) == 17  # header + 16 properties
        assert any(line.startswith("group\t-\t") for line in lines)

    def test_cross_check_agreement(self, tmp_json, capsys):
        path = tmp_json("g.json", GENS_SWAP)
        code, out = run(capsys, "props", path, "--cross-check")
        assert code == 0 and "DISAGREE" not in out

    def test_cross_check_reports_disagreement(self, tmp_json, capsys, monkeypatch):
        # a generator-level checker that flips its verdict is caught by the oracle
        from pbsg.checkers import _CHECKERS
        from pbsg.properties import CheckReport, PropertyName

        path = tmp_json("g.json", GENS_SWAP)
        argv = ("props", path, "--property", "commutative", "--cross-check")
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setitem(_CHECKERS, PropertyName.COMMUTATIVE,
                            lambda gens: CheckReport(False))
        code, out = run(capsys, *argv)
        assert code == 4 and "commutative\tfalse\ttrue\t" in out
        assert out.endswith("DISAGREE\tcommutative\n")
        code, out = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert code == 4 and doc["disagreements"] == ["commutative"]
        assert doc["results"][0]["fast"] is False and doc["results"][0]["oracle"] is True

    def test_oracle_is_cross_check(self, tmp_json, capsys):
        for doc in (GENS_SWAP, GENS_SHIFT):
            path = tmp_json("g.json", doc)
            for extra in ((), ("--json",), ("--property", "band")):
                assert (run(capsys, "props", path, "--oracle", *extra)
                        == run(capsys, "props", path, "--cross-check", *extra))

    def test_json_output(self, tmp_json, capsys):
        path = tmp_json("g.json", GENS_SWAP)
        code, out = run(capsys, "props", path, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["schema"] == "pbsg/1"
        assert len(doc["results"]) == 16

    def test_unknown_property_is_usage_error(self, tmp_json, capsys):
        path = tmp_json("g.json", GENS_SWAP)
        code, _ = run(capsys, "props", path, "--property", "frobnicating")
        assert code == 2


    def test_large_order_permutation_decides_fast(self, tmp_json, capsys):
        # the 77-point permutation has order 9,699,690: no check may step
        # through its powers
        doc = {"degree": 77, "generators": [cycle_permutation(PRIME_CYCLES).to_json_obj()["map"]]}
        path = tmp_json("g.json", doc)
        for argv in (["props", path, "--property", "left-identity"],
                     ["props", path, "--property", "two-sided-identity"],
                     ["models", path, "x1=x1^2 => x1 = x2"]):
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
            out = capsys.readouterr().out
            assert elapsed < 2.0, argv
            assert code == (1 if argv[0] == "models" else 0), argv
        assert "x1: word 1 1 -> '1 2 3 " in out


class TestOracle:
    def test_table(self, tmp_json, capsys):
        path = tmp_json("g.json", GENS_SWAP)
        code, out = run(capsys, "oracle", path, "--property", "group")
        assert code == 0 and "group\ttrue" in out
        code, out = run(capsys, "oracle", path, "--property", "zero", "--json")
        assert code == 1
        assert json.loads(out) == {
            "schema": "pbsg/1", "command": "oracle", "closure_size": 2,
            "results": [{"property": "zero", "holds": False, "witness": None}],
        }

    def test_limit_exceeded_exit(self, tmp_json, capsys):
        path = tmp_json("g.json", GENS_SWAP)
        code, _ = run(capsys, "oracle", path, "--limit", "1")
        assert code == 3


class TestMember:
    def test_found_with_witness(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SWAP)
        elem = tmp_json("b.json", {"degree": 2, "map": [1, 2]})
        code, out = run(capsys, "member", gens, elem)
        assert code == 0
        assert out.splitlines() == ["FOUND", "witness: 1 1"]

    def test_not_found(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SHIFT)
        elem = tmp_json("b.json", {"degree": 2, "map": [1, 2]})
        code, out = run(capsys, "member", gens, elem)
        assert code == 1 and out.startswith("NOT-FOUND")

    def test_bad_element_file(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SWAP)
        elem = tmp_json("b.json", {"degree": 2, "map": [3, 1]})
        code, _ = run(capsys, "member", gens, elem)
        assert code == 2
        elem = tmp_json("b0.json", {"degree": 0, "map": []})
        code = main(["member", gens, elem])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"pbsg: {elem}: degree must be a positive integer\n"

    def test_degree_over_cap_is_usage_error(self, tmp_json, capsys):
        # the closure and the model checker's reach store one byte per
        # point plus the undefined sink
        n = 256
        cycle = [i % n + 1 for i in range(1, n + 1)]
        gens = tmp_json("g.json", {"degree": n, "generators": [cycle]})
        elem = tmp_json("b.json", {"degree": n, "map": list(range(1, n + 1))})
        for argv in (["member", gens, elem], ["models", gens, "x1 = x1 x1"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert len(captured.err.splitlines()) == 1 and "255" in captured.err
            assert "Traceback" not in captured.err


class TestModels:
    def test_models_true(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SWAP)
        code, out = run(capsys, "models", gens, "x1 x1^-1 x1 = x1")
        assert code == 0 and "MODELS" in out

    def test_not_models_with_counterexample(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SHIFT)
        code, out = run(capsys, "models", gens, "x1 x1^-1 = x1^-1 x1")
        assert code == 1
        assert "NOT-MODELS" in out
        assert "boundary p: 1 2 1" in out
        assert "boundary q: 1 _ _" in out
        assert "lhs value: '1 _'" in out
        assert "rhs value: '_ 2'" in out

    def test_cross_check_and_oracle_modes(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SHIFT)
        code, out = run(capsys, "models", gens, "x1 x1^-1 = x1^-1 x1", "--cross-check")
        assert code == 1 and "DISAGREE" not in out
        code, out = run(capsys, "models", gens, "x1 x1^-1 = x1^-1 x1", "--oracle")
        assert code == 1 and "oracle assignment" in out

    def test_cross_check_reports_disagreement(self, tmp_json, capsys, monkeypatch):
        # a model checker that flips its verdict is caught by the oracle
        import pbsg.model_checker as mc

        gens = tmp_json("g.json", GENS_SHIFT)
        argv = ("models", gens, "x1 x1^-1 = x1^-1 x1", "--cross-check")
        assert run(capsys, *argv)[0] == 1
        monkeypatch.setattr(mc, "models",
                            lambda g, ident, budget: mc.ModelCheckResult(None, g))
        code, out = run(capsys, *argv)
        assert code == 4 and "DISAGREE\tfast=True\toracle=False\n" in out
        code, out = run(capsys, *argv, "--json")
        (block,) = json.loads(out)["results"]
        assert code == 4 and block["disagreement"] == {"fast": True, "oracle": False}

    def test_identity_file(self, tmp_json, capsys, tmp_path):
        gens = tmp_json("g.json", GENS_SWAP)
        idents = tmp_path / "idents.txt"
        idents.write_text("x1 = x1\nx1 x1^-1 x1 = x1\n")
        code, out = run(capsys, "models", gens, "@" + str(idents))
        assert code == 0 and out.count("MODELS") == 2

    def test_identity_file_errors_name_the_path_once(self, tmp_json, tmp_path, capsys):
        gens = tmp_json("g.json", GENS_SWAP)
        (tmp_path / "latin1.txt").write_bytes(b"x1 = x1\xff\n")
        (tmp_path / "blank.txt").write_text("\n  \n")
        (tmp_path / "bad.txt").write_text("x1 = x1\n\nx1 = \nx1 = x1\n")
        for name in ("missing.txt", "latin1.txt", "blank.txt", "bad.txt"):
            path = str(tmp_path / name)
            code = main(["models", gens, "@" + path])
            err = capsys.readouterr().err
            assert code == 2 and len(err.splitlines()) == 1, err
            assert err.startswith("pbsg: ") and err.count(path) == 1, err
        # the line is counted from 1, blank lines included, and the position
        # within it as written
        assert err == (f"pbsg: {path}: line 3: bad identity: "
                       "right side has no literals at position 5\n")

    def test_bad_identity_is_usage_error(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SWAP)
        code, _ = run(capsys, "models", gens, "x1 = ")
        assert code == 2

    def test_budget_exceeded(self, tmp_json, capsys):
        # the shift's square is undefined everywhere, so its inverse hull lies
        # in no class that models decides before its walk, which charges 18
        gens = tmp_json("g.json", GENS_SHIFT)
        code, _ = run(capsys, "models", gens, "x1 x2 = x2 x1", "--budget", "5")
        assert code == 3

    def test_oracle_assignment_cap(self, tmp_json, capsys):
        # the co-singleton semilattice of degree 8 has 255**3 assignments
        n = 8
        cosingletons = [[None if x == k else x + 1 for x in range(n)] for k in range(n)]
        gens = tmp_json("g.json", {"degree": n, "generators": cosingletons})
        for mode in ("--oracle", "--cross-check"):
            start = time.perf_counter()
            code = main(["models", gens, "x1 x2 x3 = x3 x2 x1", mode])
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code == 3 and elapsed < 2.0
            assert len(captured.err.splitlines()) == 1 and "budget" in captured.err

    def test_long_identity_decides(self, tmp_json, capsys):
        # one boundary position per literal: the search may not recurse per
        # position, or a thousand literals exceed the interpreter's stack
        gens = tmp_json("g.json", {"degree": 3, "generators": [[2, 3, None], [1, None, 3]]})
        word = " ".join(["x1"] * 1000)
        for identity, exit_code in ((f"{word} = {word}", 0), (f"{word} = x1", 1)):
            start = time.perf_counter()
            code = main(["models", gens, identity])
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code == exit_code and elapsed < 2.0, identity[-10:]
            assert captured.err == ""
        assert "NOT-MODELS" in captured.out and "boundary q: " in captured.out

    def test_json_counterexample(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SHIFT)
        code, out = run(capsys, "models", gens, "x1 x1^-1 = x1^-1 x1", "--json")
        doc = json.loads(out)
        assert code == 1
        (block,) = doc["results"]
        assert block["models"] is False
        cex = block["counterexample"]
        assert cex["lhs_value"] != cex["rhs_value"]


class TestTiling:
    def test_solve(self, tmp_json, capsys):
        path = tmp_json("t.json", TILING_OK)
        code, out = run(capsys, "tiling", "solve", path)
        assert code == 0 and out.splitlines() == ["SOLVABLE", "1"]
        path = tmp_json("t2.json", TILING_BAD)
        code, out = run(capsys, "tiling", "solve", path)
        assert code == 1 and out.startswith("UNSOLVABLE")

    def test_reduce_emits_parseable_generator_set(self, tmp_json, capsys, tmp_path):
        from pbsg import GeneratorSet

        path = tmp_json("t.json", TILING_OK)
        out_path = tmp_path / "red.json"
        code, _ = run(capsys, "tiling", "reduce", path, "-o", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        gens = GeneratorSet.from_json_obj(doc)
        assert gens.degree == 2
        assert doc["target"] == {"degree": 2, "map": [1, 2]}
        assert doc["points"][0] == {"index": 1, "q": 1, "r": 1}

    def test_roundtrip(self, tmp_json, capsys):
        path = tmp_json("t.json", TILING_OK)
        code, out = run(capsys, "tiling", "roundtrip", path)
        assert code == 0
        assert "solvable=true" in out and "member=true" in out and "consistent=true" in out
        path = tmp_json("t2.json", TILING_BAD)
        code, out = run(capsys, "tiling", "roundtrip", path)
        assert code == 0
        assert "solvable=false" in out and "member=false" in out

    @pytest.mark.parametrize("fault", ("grid", "witness"))
    def test_failed_roundtrip_exits_4(self, fault, tmp_json, capsys, monkeypatch):
        from pbsg import tiling

        if fault == "grid":
            # right-shaped, but tile 2 on top breaks the north border: its
            # word does not evaluate to the target
            monkeypatch.setattr(tiling, "solve_corridor_tiling",
                                lambda inst, limit: tiling.TilingGrid([[1], [0]]))
        else:
            # a witness of one letter does not factor into columns of 2 rows
            monkeypatch.setattr(tiling, "_member",
                                lambda keys, target, limit: tiling.MemberResult((0,)))
        path = tmp_json("t.json", TILING_CRITERION_6)
        report = tiling.roundtrip_check(tiling.TilingInstance.from_json_obj(TILING_CRITERION_6))
        assert report.solvable and report.member.found and not report.consistent
        assert report.decoded is None
        code, out = run(capsys, "tiling", "roundtrip", path)
        assert code == 4
        assert out.splitlines() == ["solvable=true", "member=true", "consistent=false"]

    def test_mistyped_fields_are_usage_errors(self, tmp_json, capsys):
        for field, value in (("colors", "2"), ("width", True), ("tiles", 3)):
            path = tmp_json("t.json", {**TILING_OK, field: value})
            for sub in ("solve", "roundtrip"):
                code = main(["tiling", sub, path])
                err = capsys.readouterr().err
                assert code == 2, (field, sub)
                assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_reduce_past_the_closure_cap(self, tmp_json, capsys):
        # 2 * 16 * 8 = 256 points, one past the closure's byte keys: the
        # reduction itself has no cap, and prints the bytes it always has
        from pbsg import GeneratorSet

        path = tmp_json("t.json", {**TILING_OK, "colors": 8, "width": 16})
        code, out = run(capsys, "tiling", "reduce", path)
        assert code == 0
        doc = json.loads(out)
        gens = GeneratorSet.from_json_obj(doc)
        assert gens.degree == 256 and len(gens.generators) == 16
        assert sum(v is not None for v in doc["target"]["map"]) == 17
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7bd14dbac4c1ff3e20dfcbdc8a0334c3a1703c9caceb434b40cb8c967d0e451e")

    def test_roundtrip_degree_over_cap_is_usage_error(self, tmp_json, capsys):
        # width 16 and 8 colors compile to 2 * 16 * 8 = 256 points
        path = tmp_json("t.json", {**TILING_OK, "colors": 8, "width": 16})
        code = main(["tiling", "roundtrip", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "255" in captured.err
        assert "Traceback" not in captured.err

    def test_roundtrip_checks_the_cap_before_the_solver(self, tmp_json, capsys, monkeypatch):
        # 2 * 2 * 64 = 256 points: a solver past its --limit is never reached,
        # so the cap's usage error (2) comes first, not the budget's exit 3
        from pbsg import tiling
        from pbsg.closure import LimitExceeded

        def over_budget(*args, **kwargs):
            raise LimitExceeded(1, 2)

        def unreached(*args, **kwargs):
            raise AssertionError("ran past the closure cap")

        monkeypatch.setattr(tiling, "solve_corridor_tiling", over_budget)
        monkeypatch.setattr(tiling, "reduce", unreached)
        path = tmp_json("t.json", {**TILING_CRITERION_6, "colors": 64})
        code = main(["tiling", "roundtrip", path, "--limit", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "pbsg: degree 256 exceeds the closure cap of 255 points\n"

    def test_column_limit(self, tmp_json, capsys):
        # 4 tiles on 14 rows: 4**14 candidate columns, far over the default limit
        path = tmp_json("t.json", {**TILING_OK, "width": 14, "tiles": TILING_OK["tiles"] * 4})
        for sub in ("solve", "roundtrip"):
            start = time.perf_counter()
            code = main(["tiling", sub, path])
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert code == 3 and len(err.splitlines()) == 1 and "columns" in err
        code = main(["tiling", "solve", path, "--limit", "1"])
        assert code == 3 and "columns" in capsys.readouterr().err

    def test_column_limit_counts_only_consistent_columns(self, tmp_json, capsys):
        # 7**8 candidate columns, over the default limit, but the profiles
        # the search reaches have 26 columns: the limit charges those alone
        tiles = [(1, 2, 2, 1), (2, 1, 2, 1), (2, 2, 1, 1), (3, 1, 3, 1),
                 (2, 1, 1, 2), (2, 1, 2, 2), (1, 1, 2, 2)]
        path = tmp_json("t.json", {"colors": 3, "width": 8, "tiles": [
            dict(zip("nesw", t)) for t in tiles]})
        code, out = run(capsys, "tiling", "solve", path)
        assert code == 0
        assert out.splitlines() == ["SOLVABLE", "1 7"] + ["2 2"] * 6 + ["3 5"]
        code, out = run(capsys, "tiling", "roundtrip", path, "--json")
        assert code == 0 and json.loads(out)["consistent"]
        assert run(capsys, "tiling", "solve", path, "--limit", "26")[0] == 0
        assert run(capsys, "tiling", "solve", path, "--limit", "25")[0] == 3

    def test_multi_column_grid_needs_no_cap(self, tmp_json, capsys):
        # two tiles of width 1 whose shortest grid has 2 columns
        path = tmp_json("t.json", {"colors": 2, "width": 1, "tiles": [
            {"n": 1, "e": 2, "s": 1, "w": 1}, {"n": 1, "e": 1, "s": 1, "w": 2}]})
        code, out = run(capsys, "tiling", "solve", path)
        assert code == 0 and out.splitlines() == ["SOLVABLE", "1 2"]
        # --limit counts the two columns built: 2 decides, 1 runs out
        assert run(capsys, "tiling", "solve", path, "--limit", "2")[0] == 0
        assert run(capsys, "tiling", "solve", path, "--limit", "1")[0] == 3


class TestRandom:
    def test_gens_deterministic_and_valid(self, capsys):
        from pbsg import GeneratorSet

        code, out1 = run(capsys, "random", "gens", "-n", "4", "-k", "3", "--seed", "7")
        code2, out2 = run(capsys, "random", "gens", "-n", "4", "-k", "3", "--seed", "7")
        assert code == code2 == 0 and out1 == out2
        gens = GeneratorSet.from_json_obj(json.loads(out1))
        assert gens.degree == 4 and len(gens.generators) == 3

    def test_gens_inverse_closed_flag(self, capsys):
        from pbsg import GeneratorSet

        code, out = run(capsys, "random", "gens", "-n", "3", "-k", "2",
                        "--seed", "1", "--inverse-closed")
        gens = GeneratorSet.from_json_obj(json.loads(out))
        assert code == 0 and gens.inverse_closed

    def test_tiling_valid(self, capsys):
        from pbsg.tiling import TilingInstance

        code, out = run(capsys, "random", "tiling", "-m", "2", "-c", "2", "-k", "2",
                        "--seed", "7")
        inst = TilingInstance.from_json_obj(json.loads(out))
        assert code == 0 and inst.width == 2 and len(inst.tiles) == 2

    def test_seed_changes_output(self, capsys):
        _, out1 = run(capsys, "random", "gens", "-n", "4", "-k", "3", "--seed", "7")
        _, out2 = run(capsys, "random", "gens", "-n", "4", "-k", "3", "--seed", "8")
        assert out1 != out2

    def test_non_positive_sizes_name_themselves(self, capsys):
        for argv, word in ((["tiling", "-m", "2", "-c", "0", "-k", "2"], "colors 0"),
                           (["tiling", "-m", "2", "-c", "-1", "-k", "2"], "colors -1"),
                           (["gens", "-n", "-1", "-k", "2"], "degree")):
            code = main(["random", *argv])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", argv
            assert len(captured.err.splitlines()) == 1 and word in captured.err, argv
            assert "randrange" not in captured.err


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert main(["props", "/nonexistent/g.json"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["props", str(path)]) == 2

    def test_repeated_image_is_named_one_based(self, tmp_json, capsys):
        gens = tmp_json("dup.json", {"degree": 3, "generators": [[2, 2, None]]})
        assert main(["props", gens]) == 2
        assert capsys.readouterr().err == f"pbsg: {gens}: not injective: image 2 repeated\n"

    @pytest.mark.parametrize("command", (["props"], ["member", "GENS"], ["tiling", "solve"]),
                             ids=("gens", "element", "tiling"))
    def test_input_file_errors_name_the_path_once(self, command, tmp_json, tmp_path, capsys):
        gens = tmp_json("g.json", GENS_SWAP)
        (tmp_path / "bad.json").write_text("{not json")
        # nesting past the interpreter's recursion limit, which the decoder hits
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        (tmp_path / "latin1.json").write_bytes(b'{"degree": 2, "map": [1, "\xff"]}')
        bad_schema = tmp_json("schema.json", {"degree": 2, "generators": [[3, 1]], "map": [3, 1]})
        for path in (str(tmp_path / "missing.json"), str(tmp_path / "bad.json"),
                     str(tmp_path / "deep.json"), str(tmp_path / "latin1.json"), bad_schema):
            code = main([gens if arg == "GENS" else arg for arg in command] + [path])
            err = capsys.readouterr().err
            assert code == 2 and len(err.splitlines()) == 1, err
            assert err.startswith("pbsg: ") and err.count(path) == 1, err

    def test_non_positive_budgets_are_usage_errors(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SWAP)
        elem = tmp_json("b.json", {"degree": 2, "map": [1, 2]})
        tiling = tmp_json("t.json", TILING_OK)
        # exit codes at the least budget, 1: it runs out, or it suffices
        # (x1 = x1 x1 is no law, so its walk runs and is charged)
        for argv, flag, at_one in ((["member", gens, elem], "--limit", 3),
                                   (["models", gens, "x1 = x1 x1"], "--budget", 3),
                                   (["models", gens, "x1 = x1"], "--limit", 0),
                                   (["tiling", "solve", tiling], "--limit", 0)):
            for value in ("0", "-1"):
                code = main([*argv, flag, value])
                captured = capsys.readouterr()
                assert code == 2 and captured.out == "", (argv, flag, value)
                assert len(captured.err.splitlines()) == 1 and flag in captured.err
            assert run(capsys, *argv, flag, "1")[0] == at_one, (argv, flag)

    def test_limit_below_the_generator_count_is_a_budget_verdict(self, tmp_json, capsys):
        # --limit counts closure elements: 1 is a valid limit that two
        # distinct generators outgrow, not a usage error
        gens = tmp_json("g.json", GENS_CRITERION_6)
        for argv in (["oracle", gens], ["props", gens, "--property", "zero"],
                     ["models", gens, "x1 = x1", "--oracle"]):
            code = main([*argv, "--limit", "1"])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == "", argv
            assert captured.err.splitlines() == ["pbsg: closure exceeds 1 elements (stopped at 2)"]

    def test_options_a_subcommand_ignores_are_usage_errors(self, tmp_json, capsys):
        gens = tmp_json("g.json", GENS_SWAP)
        tiling = tmp_json("t.json", TILING_OK)
        for argv in (["models", gens, "x1 = x1", "--strict-points"],
                     ["tiling", "solve", tiling, "--max-cols", "2"],
                     ["tiling", "reduce", tiling, "--json"],
                     ["tiling", "reduce", tiling, "--limit", "5"],
                     ["random", "gens", "-n", "2", "-k", "1", "--json"],
                     ["random", "tiling", "-m", "1", "-c", "1", "-k", "1", "--json"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", argv
            assert len(captured.err.splitlines()) == 1, argv

    def test_inverse_closed_must_be_boolean(self, tmp_json, capsys):
        for value in ("no", 1):
            path = tmp_json("g.json", {**GENS_SWAP, "inverse_closed": value})
            assert main(["props", path]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "inverse_closed" in err
