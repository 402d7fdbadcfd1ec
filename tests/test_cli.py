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

    def test_module_axioms(self, capsys):
        code, out, _ = run(
            capsys, "check", "module", "--algebra", "block", "--q", "2",
            "--lambda", "1", "--alpha", "1", "--box", "2",
        )
        assert code == 0

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
