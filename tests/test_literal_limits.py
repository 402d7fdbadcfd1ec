"""Literals too large to read are parse errors at their offset, found before any allocation.

A digit run longer than Python's int-conversion limit (4,300 digits), also
in the imaginary part of a complex literal, and a variable index above ``DEGREE_CAP`` are both rejected by the scanner, so
callers see a ``ParseError`` (CLI exit 2, one ``parse error:`` line) and
no exponent list is sized by an index first.
"""

import tracemalloc

import pytest

from cartanfree import parse_polynomial, parse_scalar
from cartanfree.cli import main
from cartanfree.errors import ParseError
from cartanfree.polynomials import DEGREE_CAP

LONG = "1" * 5000
LOOP_ACT = ("act", "--algebra", "loop", "--lambda", "2", "--mu", "3", "--alpha", "1", "L(1,0)")


def _cli_error(capsys, vector: str) -> list[str]:
    code = main([*LOOP_ACT, vector])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    return err


class TestLongDigitRuns:
    def test_parse_scalar(self):
        with pytest.raises(ParseError, match="5000 digits") as info:
            parse_scalar(LONG)
        assert info.value.position == 0

    def test_denominator(self):
        with pytest.raises(ParseError) as info:
            parse_scalar("1/" + LONG)
        assert info.value.position == 2

    def test_parse_polynomial_exponent(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("t^" + LONG)
        assert info.value.position == 2

    def test_cli(self, capsys):
        err = _cli_error(capsys, "t^" + LONG)
        assert len(err) == 1 and err[0].startswith("parse error:")

    @pytest.mark.parametrize("parse", [parse_scalar, parse_polynomial])
    def test_imaginary_part(self, parse):
        # the complex-tail backtrack keeps the run's own error
        with pytest.raises(ParseError, match="5000 digits") as info:
            parse("1+" + LONG + "i")
        assert info.value.position == 2 and len(str(info.value)) < 80

    def test_imaginary_part_cli(self, capsys):
        # --lambda is read as a scalar literal, through the backtrack
        argv = ["act", "--algebra", "loop", "--lambda", "1+" + LONG + "i", "--mu", "3", "--alpha", "1"]
        code = main([*argv, "L(1,0)", "t"])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("parse error:") and len(err[0]) < 80


class TestVariableIndexLimit:
    def test_largest_index_parses(self):
        f = parse_polynomial(f"t{DEGREE_CAP}")
        assert f.nvars == DEGREE_CAP

    @pytest.mark.parametrize("text,offset", [("t65", 1), ("t1000000000", 1), ("2*t1*t1000000000^2", 6)])
    def test_rejected_at_the_index(self, text, offset):
        with pytest.raises(ParseError, match="stop at 64") as info:
            parse_polynomial(text)
        assert info.value.position == offset

    def test_fails_fast(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                parse_polynomial("t1000000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # no exponent list sized by the index

    def test_cli(self, capsys):
        err = _cli_error(capsys, "t1000000000")
        assert len(err) == 1 and err[0].startswith("parse error:") and "stop at 64" in err[0]
