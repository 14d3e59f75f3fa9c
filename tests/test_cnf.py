"""DIMACS parsing and violated-clause energy functions."""

import numpy as np
import pytest

from parwalk.cnf import (
    VAR_CAP,
    CnfFormula,
    gibbs_from_cnf,
    load_dimacs,
    parse_dimacs,
    violated_counts,
)
from parwalk.errors import ParseError, TooManyVariables


def test_parse_two_var_single_clause():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n")
    assert f.num_vars == 2 and f.num_clauses == 1
    assert f.clauses == ((1, 2),)
    counts = violated_counts(f)
    # x=00 violates (x1 or x2); every other assignment satisfies it
    assert counts.tolist() == [1, 0, 0, 0]


def test_parse_empty_clause_list():
    f = parse_dimacs("p cnf 3 0\n")
    assert f.num_clauses == 0
    assert violated_counts(f).tolist() == [0] * 8
    model = gibbs_from_cnf(f, beta=1.0)
    assert model.levels == 1


def test_comments_blank_lines_and_multiline_clauses():
    text = """c a tiny instance
c with comments

p cnf 3 2
1 -2
3 0
-1 0
"""
    f = parse_dimacs(text)
    assert f.clauses == ((1, -2, 3), (-1,))


def test_negative_literals_flip_polarity():
    f = parse_dimacs("p cnf 1 1\n-1 0\n")
    # clause (not x1): violated exactly when x1 = 1
    assert violated_counts(f).tolist() == [0, 1]


def test_bit_order_uses_place_value():
    f = parse_dimacs("p cnf 2 1\n2 0\n")
    # clause (x2): x2 is the bit of place value 2
    assert violated_counts(f).tolist() == [1, 1, 0, 0]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1: missing"),
        ("p cnf x 1\n1 0\n", "non-integer"),
        ("p cnf 2 -1\n", "negative"),
        ("p dnf 2 1\n1 0\n", "malformed header"),
        ("p cnf 2 1 7\n1 0\n", "malformed header"),
        ("1 2 0\np cnf 2 1\n", "clause data before header"),
        ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate"),
        ("p cnf 2 1\n1 3 0\n", "literal 3 outside"),
        ("p cnf 2 1\n1 a 0\n", "bad literal"),
        ("p cnf 2 1\n1 2\n", "unterminated"),
        ("p cnf 2 2\n1 0\n", "promises 2 clauses, found 1"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_dimacs(text)


def test_error_messages_carry_line_numbers():
    with pytest.raises(ParseError, match="line 4"):
        parse_dimacs("c one\nc two\np cnf 2 1\n1 5 0\n")


def test_enumeration_cap():
    f = CnfFormula(num_vars=VAR_CAP + 1, clauses=((1,),))
    with pytest.raises(TooManyVariables):
        violated_counts(f)


def test_gibbs_model_levels_and_energies():
    f = parse_dimacs("p cnf 2 2\n1 0\n2 0\n")
    model = gibbs_from_cnf(f, beta=0.5)
    assert model.levels == 3
    # state 00 violates both unit clauses, 01 and 10 violate one, 11 none
    assert model.energies.tolist() == [2, 1, 1, 0]
    assert model.beta == 0.5


def test_load_dimacs_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"c caf\xe9\np cnf 1 1\n1 0\n")
    with pytest.raises(ParseError, match="line 1: byte 5 is not UTF-8"):
        load_dimacs(path)


def test_load_dimacs_round_trip(tmp_path):
    path = tmp_path / "toy.cnf"
    path.write_text("c file\np cnf 2 1\n-1 2 0\n", encoding="utf-8")
    f = load_dimacs(path)
    assert f.clauses == ((-1, 2),)
