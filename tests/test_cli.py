import json

import pytest

import pytest

from cartanfree.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBracket:
    def test_loop_identity(self, capsys):
        code, out, _ = run(capsys, "bracket", "--algebra", "loop", "L(2,1)", "L(-2,0)")
        assert code == 0
        assert out.strip() == "-4*L(0,1) + 1/2*C(1)"

    def test_output_reparses(self, capsys):
        code, out, _ = run(capsys, "bracket", "--algebra", "loop", "L(1,1)+L(2,2)", "L(0,1)")
        assert code == 0
        code2, out2, _ = run(capsys, "bracket", "--algebra", "loop", out.strip(), "C(0)")
        assert code2 == 0 and out2.strip() == "0"

    def test_excluded_symbol_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bracket", "--algebra", "block", "--q", "-1", "L(0,2)", "L(1,0)")
        assert code == 2
        assert "excluded" in err

    def test_missing_q_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bracket", "--algebra", "block", "L(0,1)", "L(1,0)")
        assert code == 2

    def test_complex_q_gated(self, capsys):
        code, _, err = run(capsys, "bracket", "--algebra", "block-hat", "--q", "1i", "L(0,1)", "L(1,0)")
        assert code == 2 and "--allow-complex-q" in err
        code, out, _ = run(
            capsys, "bracket", "--algebra", "block-hat", "--q", "1i",
            "--allow-complex-q", "L(0,1)", "L(1,0)",
        )
        assert code == 0


class TestAct:
    def test_loop_action(self, capsys):
        code, out, _ = run(
            capsys, "act", "--algebra", "loop", "--lambda", "2", "--mu", "3",
            "--alpha", "1", "L(1,1)", "1",
        )
        assert code == 0 and out.strip() == "3*t - 3"

    def test_beta_requires_block_q_minus_one(self, capsys):
        code, _, err = run(
            capsys, "act", "--algebra", "loop", "--lambda", "2", "--mu", "3",
            "--beta", "1", "L(1,1)", "1",
        )
        assert code == 2 and "--beta" in err

    def test_block_hv_action(self, capsys):
        code, out, _ = run(
            capsys, "act", "--algebra", "block", "--q", "-1", "--lambda", "1",
            "--alpha", "0", "--beta", "2", "L(3,1)", "t",
        )
        assert code == 0 and out.strip() == "2*t + 6"

    def test_leading_minus_in_arguments(self, capsys):
        # -L(1,0) . (-t) = L(1,0) . t = 2 (t - 1)^2
        code, out, err = run(
            capsys, "act", "--algebra", "loop", "--lambda", "2", "--mu", "3",
            "--alpha", "1", "--", "-L(1,0)", "-t",
        )
        assert (code, err) == (0, "") and out.strip() == "2*t^2 - 4*t + 2"


class TestChecks:
    def test_composition_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "composition", "--lambda", "2", "--mu", "3",
            "--box", "2", "--max-degree", "4",
        )
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("max_degree", ["0", "-3"])
    def test_composition_without_test_vectors_is_usage_error(self, capsys, max_degree):
        code, out, err = run(
            capsys, "check", "composition", "--lambda", "2", "--mu", "3",
            "--max-degree", max_degree,
        )
        assert (code, out, err) == (2, "", "error: max_degree must be >= 1\n")

    def test_module_check_without_test_vectors_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "check", "module", "--algebra", "loop", "--lambda", "2", "--mu", "3",
            "--alpha", "1", "--polys", ";",
        )
        assert (code, out, err) == (2, "", "error: need at least one test vector\n")

    def test_jacobi_json_matches_human_verdict(self, capsys):
        code, out, _ = run(capsys, "check", "jacobi", "--algebra", "loop", "--box", "2", "--json")
        assert code == 0
        body = json.loads(out)
        assert body["check"] == "jacobi" and body["ok"] is True
        # one bracket_pairs call per table entry: 72 rows (the 30 box
        # symbols and 42 more that in-box brackets reach) x 30 box symbols
        assert body["brackets_evaluated"] == 72 * 30
        code, out, _ = run(capsys, "check", "jacobi", "--algebra", "loop", "--box", "2")
        assert code == 0 and "PASS" in out
        assert out == "jacobi loop box i=-2..2,j=-2..2: 435 pairs, 4060 triples -> PASS\n"

    def test_jacobi_json_reports_sums_evaluated(self, capsys):
        code, out, _ = run(capsys, "check", "jacobi", "--algebra", "loop", "--box", "2", "--json")
        assert code == 0
        body = json.loads(out)
        assert body["triples_checked"] == 4060
        # the five C(j) are dead: at most C(25, 3) sums over the L(i,j)
        assert 0 < body["sums_evaluated"] <= 2300

    def test_module_axioms(self, capsys):
        code, out, _ = run(
            capsys, "check", "module", "--algebra", "block", "--q", "2",
            "--lambda", "1", "--alpha", "1", "--box", "2",
        )
        assert code == 0

    def test_module_axioms_json_reports_representatives_and_applications(self, capsys):
        code, out, _ = run(
            capsys, "check", "module", "--algebra", "loop", "--lambda", "2", "--mu", "3",
            "--alpha", "1", "--box", "2", "--json",
        )
        assert code == 0
        body = json.loads(out)
        # one representative per first index; 72 symbols x 4 vectors + 2 x 10 pairs x 4 + 5 zero checks
        assert (body["representatives"], body["applications"]) == (5, 373)

    def test_center_with_embedding(self, capsys):
        code, out, _ = run(
            capsys, "check", "center", "--algebra", "block-hat", "--q", "-3",
            "--box", "4", "--embedding",
        )
        assert code == 0
        assert "L(0,3)" in out and "central" in out

    def test_center_of_truncated_block(self, capsys):
        code, out, _ = run(
            capsys, "check", "center", "--algebra", "block-trunc", "--q=-1",
            "--k", "0", "--l", "2", "--box", "2",
        )
        assert code == 0
        assert out == "center of block-trunc(q=-1,k=0,l=2): L(0,1): central\n"


class TestProbes:
    def test_proper_window_is_not_an_error(self, capsys):
        code, out, _ = run(
            capsys, "probe", "simplicity", "--algebra", "loop", "--lambda", "2",
            "--mu", "3", "--alpha", "0", "--box", "2", "--max-degree", "4", "--json",
        )
        assert code == 0
        body = json.loads(out)
        assert body["verdict"] == "ProperInvariantWindow"
        assert body["dim"] == 4
        assert body["certificate"] == "invariant-certified"

    def test_fills_window(self, capsys):
        code, out, _ = run(
            capsys, "probe", "simplicity", "--algebra", "virasoro", "--lambda", "2",
            "--alpha", "1", "--box", "2", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "FillsWindow"

    def test_tensor_probe(self, capsys):
        code, out, _ = run(
            capsys, "probe", "tensor", "--factors", "2,1,1;3,1,1",
            "--box", "2", "--max-degree", "3", "--json",
        )
        assert code == 0
        body = json.loads(out)
        assert body["verdict"] == "FillsWindow" and body["dim"] == 16

    def test_window_above_the_degree_cap(self, capsys):
        argv = (
            "probe", "simplicity", "--algebra", "loop", "--lambda", "2", "--mu", "1",
            "--alpha", "1", "--max-degree", "70",
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith("FillsWindow(71)")
        code, _, err = run(capsys, *argv, "--seeds", "t^70")
        assert code == 2
        assert "degree 70 exceeds the polynomial degree cap 64" in err


class TestTablesAndClassify:
    def test_emit_derive_round_trip(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, _, _ = run(
            capsys, "emit-table", "--algebra", "loop", "--lambda", "2", "--mu", "3",
            "--alpha", "2", "--box", "2", "--out", str(path),
        )
        assert code == 0 and path.exists()
        code, out, _ = run(capsys, "classify", str(path), "--json")
        assert code == 0
        body = json.loads(out)
        assert body["params"] == {"lambda": "2", "mu": "3", "alpha": "2"}

    def test_distinct_tables(self, capsys, tmp_path):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "emit-table", "--algebra", "loop", "--lambda", "2", "--mu", "3",
            "--alpha", "1", "--box", "2", "--out", str(pa))
        run(capsys, "emit-table", "--algebra", "loop", "--lambda", "2", "--mu", "4",
            "--alpha", "1", "--box", "2", "--out", str(pb))
        code, out, _ = run(capsys, "classify", str(pa), str(pb))
        assert code == 0  # a verdict, not an error
        assert "Distinct" in out and "mu" in out

    def test_corrupt_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2

    def test_emitted_table_stdout(self, capsys):
        code, out, _ = run(
            capsys, "emit-table", "--algebra", "virasoro", "--lambda", "1",
            "--alpha", "0", "--box", "1",
        )
        assert code == 0
        body = json.loads(out)
        assert body["algebra"] == "virasoro"
        assert {e["sym"] for e in body["entries"]} == {"L(-1)", "L(0)", "L(1)", "C"}


class TestExitCodeContract:
    def test_failing_check_exits_one(self, capsys, monkeypatch):
        # no honest input makes a theorem-backed check fail, so stub one
        import cartanfree.cli as cli_mod
        from cartanfree.algebras import JacobiReport, IndexBox, LOOP

        def fake_check(algebra, box):
            report = JacobiReport(algebra, box)
            report.violations.append("stubbed violation")
            return report

        monkeypatch.setattr(cli_mod, "jacobi_check", fake_check)
        code, out, _ = run(capsys, "check", "jacobi", "--algebra", "loop", "--box", "1")
        assert code == 1
        assert "FAIL" in out

    def test_unexpected_exception_has_its_own_code(self, capsys, monkeypatch):
        import cartanfree.cli as cli_mod

        def broken(algebra, box):
            raise RuntimeError("stubbed bug")

        monkeypatch.setattr(cli_mod, "jacobi_check", broken)
        code, _, err = run(capsys, "check", "jacobi", "--algebra", "loop", "--box", "1")
        assert code == cli_mod.INTERNAL_ERROR == 3
        assert "internal error" in err and "stubbed bug" in err

    def test_help_documents_grammars(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "scalar ::=" in out and "gen" in out
        assert "poly   ::= ['-'] term" in out and "elem   ::= ['-']" in out


class TestIndexedVectorsRejected:
    """Rank-one families act on C[t]: a vector in t1 is a usage error (exit 2)."""

    LOOP_PARAMS = ("--algebra", "loop", "--lambda", "2", "--mu", "3", "--alpha", "1")

    def test_act(self, capsys):
        code, _, err = run(capsys, "act", "L(1,0)", "t1", *self.LOOP_PARAMS)
        assert code == 2 and "indexed variables" in err

    def test_check_module(self, capsys):
        code, _, err = run(capsys, "check", "module", *self.LOOP_PARAMS, "--polys", "t1")
        assert code == 2 and "indexed variables" in err

    def test_probe_simplicity(self, capsys):
        code, _, err = run(capsys, "probe", "simplicity", *self.LOOP_PARAMS, "--seeds", "t1")
        assert code == 2 and "indexed variables" in err


def _drop_poly(body):
    del body["entries"][0]["poly"]
    return body


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(body):
        node = body
        for step in path:
            node = node[step]
        node[key] = value
        return body

    return mutate


class TestMalformedTables:
    """Well-formed JSON of the wrong shape is a usage error (exit 2), never a crash."""

    LOOP = ("--algebra", "loop", "--lambda", "2", "--mu", "3", "--alpha", "1")
    BLOCK = ("--algebra", "block", "--q", "2", "--lambda", "2", "--alpha", "1")

    CASES = [
        ("top-level-list", LOOP, lambda body: []),
        ("entry-without-poly", LOOP, _drop_poly),
        ("poly-not-a-string", LOOP, _set("entries", 0, "poly", 5)),
        ("sym-not-a-string", LOOP, _set("entries", 0, "sym", ["L(0,0)"])),
        ("entries-an-object", LOOP, _set("entries", {"a": 1})),
        ("box-a-number", LOOP, _set("box", 5)),
        ("bound-one-int", LOOP, _set("box", "i", [1])),
        ("bound-strings", LOOP, _set("box", "i", ["a", "b"])),
        ("bound-three-ints", LOOP, _set("box", "i", [-1, 1, 5])),
        ("bound-bools", LOOP, _set("box", "j", [False, True])),
        ("k-a-string", BLOCK, lambda body: {**body, "algebra": "block-trunc", "k": "x", "l": 2}),
        ("q-a-list", BLOCK, _set("q", [1])),
        ("q-a-float", BLOCK, _set("q", 0.5)),
    ]

    @pytest.mark.parametrize("family,mutate", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_exits_two_without_traceback(self, capsys, tmp_path, family, mutate):
        path = tmp_path / "table.json"
        code, _, _ = run(capsys, "emit-table", *family, "--box", "1", "--out", str(path))
        assert code == 0
        body = json.loads(path.read_text())
        assert run(capsys, "classify", str(path))[0] == 0  # the unmutated table derives
        path.write_text(json.dumps(mutate(body)))
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestRepeatedTableSymbol:
    """A symbol given twice is an inconsistent table (exit 2), whichever entry comes first."""

    EXTRA = {"sym": "L(-2,-2)", "poly": "t^2"}

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_exits_two(self, capsys, tmp_path, where):
        path = tmp_path / "table.json"
        code, _, _ = run(
            capsys, "emit-table", "--algebra", "loop", "--lambda", "2", "--mu", "3",
            "--alpha", "2", "--box", "2", "--out", str(path),
        )
        assert code == 0
        body = json.loads(path.read_text())
        assert any(e["sym"] == "L(-2,-2)" for e in body["entries"])
        if where == "first":
            body["entries"].insert(0, self.EXTRA)
        else:
            body["entries"].append(self.EXTRA)
        path.write_text(json.dumps(body))
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "L(-2,-2)" in err and "Traceback" not in err


class TestFileErrors:
    """Any OSError on a path named by the user is a usage error (exit 2), never a crash."""

    def test_classify_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "classify", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_emit_table_out_a_directory(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "emit-table", "--algebra", "virasoro", "--lambda", "1",
            "--alpha", "0", "--box", "1", "--out", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_permission_denied(self, capsys, tmp_path, monkeypatch):
        import cartanfree.cli as cli

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(args[0]))

        monkeypatch.setattr(cli, "open", denied, raising=False)
        code, out, err = run(capsys, "classify", str(tmp_path / "table.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Permission denied" in err


class TestParserBuiltOnce:
    """One argparse tree serves every `main` call of a process."""

    def test_mixed_calls_match_a_fresh_parser(self, capsys, tmp_path, monkeypatch):
        import cartanfree.cli as cli_mod

        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        loop = ("--algebra", "loop", "--lambda", "2", "--mu", "3")
        calls = [
            ("emit-table", *loop, "--alpha", "1", "--box", "2", "--out", str(pa)),
            ("emit-table", *loop, "--alpha=-1/2", "--box", "2", "--out", str(pb), "--json"),
            ("bracket", "--algebra", "block", "--q=1/2", "L(1,2)+2*L(-1,0)", "L(2,1)-1/2*L(0,3)", "--json"),
            ("bracket", "--algebra", "block", "--q=1/2", "L(1,2)+2*L(-1,0)", "L(2,1)-1/2*L(0,3)"),
            ("classify", str(pa), "--json"),
            ("classify", str(pa), str(pb)),
            ("classify", str(pa)),
            ("check", "module", *loop, "--alpha", "1", "--box", "1", "--json"),
            ("check", "module", *loop, "--alpha", "1", "--box", "1"),
            ("act", *loop, "--alpha", "1", "L(1,1)", "t^2"),
            ("bracket", "--algebra", "block", "L(0,1)", "L(1,0)"),  # usage error: no --q
            ("check", "jacobi", "--algebra", "virasoro", "--box", "2", "--json"),
        ]

        def outcomes():
            return [run(capsys, *argv) for argv in calls]

        before = cli_mod._build_parser.cache_info().misses
        cached = outcomes()
        assert cli_mod._build_parser.cache_info().misses - before <= 1
        monkeypatch.setattr(cli_mod, "_build_parser", cli_mod._build_parser.__wrapped__)
        fresh = outcomes()
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0] * 10 + [2, 0]

    def test_import_builds_no_parser(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        code = "import cartanfree.cli as c; print(c._build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
