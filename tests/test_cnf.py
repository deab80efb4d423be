"""CNF formulas: DIMACS round trips, evaluation, and instance generators."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiddsim import cnf
from quiddsim.cnf import CnfFormula, DimacsError, FormulaError

from dense_ref import enumerate_models


def test_parse_minimal_dimacs():
    f = cnf.parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2), (2, 3))


def test_parse_ignores_comments_and_blank_lines():
    text = "c a comment\n\np cnf 2 1\nc another\n-1 2 0\n"
    f = cnf.parse_dimacs(text)
    assert f.clauses == ((-1, 2),)


def test_parse_allows_clause_across_lines():
    f = cnf.parse_dimacs("p cnf 3 1\n1\n2\n3 0\n")
    assert f.clauses == ((1, 2, 3),)


def test_parse_rejects_variable_beyond_header():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("p cnf 2 1\n1 3 0\n")


def test_parse_rejects_missing_header():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("1 2 0\n")


def test_parse_rejects_duplicate_header():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")


def test_parse_rejects_unterminated_clause():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("p cnf 2 1\n1 2\n")


def test_parse_rejects_clause_count_mismatch():
    with pytest.raises(DimacsError):
        cnf.parse_dimacs("p cnf 2 2\n1 0\n")


def test_dimacs_round_trip():
    f = CnfFormula(num_vars=4, clauses=((1, -3, 4), (-2,), (2, 3)))
    assert cnf.parse_dimacs(cnf.to_dimacs(f)) == f


def test_formula_validation():
    with pytest.raises(FormulaError):
        CnfFormula(num_vars=2, clauses=((),))          # empty clause
    with pytest.raises(FormulaError):
        CnfFormula(num_vars=2, clauses=((0,),))        # literal zero
    with pytest.raises(FormulaError):
        CnfFormula(num_vars=2, clauses=((3,),))        # out of range
    with pytest.raises(FormulaError):
        CnfFormula(num_vars=0, clauses=())


def test_is_3cnf():
    assert cnf.is_3cnf(CnfFormula(2, ((1, 2), (-1, -2))))
    assert not cnf.is_3cnf(CnfFormula(4, ((1, 2, 3, 4),)))


def test_bits_and_index_conventions():
    # Variable 1 carries the most significant index bit.
    assert cnf.bits_from_index(0b101, 3) == (True, False, True)
    assert cnf.index_from_bits((True, False, True)) == 0b101
    for idx in range(16):
        assert cnf.index_from_bits(cnf.bits_from_index(idx, 4)) == idx


def test_evaluate_bits_and_index_agree():
    f = CnfFormula(3, ((1, -2), (3,)))
    for idx in range(8):
        bits = cnf.bits_from_index(idx, 3)
        expect = (bits[0] or not bits[1]) and bits[2]
        assert cnf.evaluate_bits(f, bits) is expect
        assert cnf.evaluate_index(f, idx) is expect


def test_enumerate_models_unique_conjunction():
    f = CnfFormula(2, ((1,), (2,)))
    assert enumerate_models(f) == [0b11]


def test_enumerate_models_tautology():
    f = CnfFormula(2, ())
    assert enumerate_models(f) == [0, 1, 2, 3]


@given(seed=st.integers(0, 10**6))
def test_random_3cnf_shape(seed):
    f = cnf.random_3cnf(num_vars=8, num_clauses=20, seed=seed)
    assert f.num_vars == 8
    assert len(f.clauses) == 20
    for clause in f.clauses:
        assert len(clause) == 3
        assert len({abs(lit) for lit in clause}) == 3


@given(seed=st.integers(0, 10**6))
def test_planted_3cnf_is_satisfiable_by_construction(seed):
    inst = cnf.planted_3cnf(num_vars=10, seed=seed)
    assert cnf.evaluate_bits(inst.formula, inst.hidden_bits)
    assert cnf.index_from_bits(inst.hidden_bits) == inst.hidden_index
    assert len(inst.formula.clauses) == round(4.2 * 10)


def test_planted_3cnf_reproducible():
    a = cnf.planted_3cnf(num_vars=12, seed=99)
    b = cnf.planted_3cnf(num_vars=12, seed=99)
    assert a.formula == b.formula and a.hidden_bits == b.hidden_bits


@pytest.mark.parametrize("ratio", [-1, -0.01, math.nan, math.inf, -math.inf])
def test_planted_3cnf_rejects_a_bad_ratio(ratio):
    # A negative ratio used to give a formula with no clause, which every
    # assignment satisfies.
    with pytest.raises(FormulaError, match="ratio"):
        cnf.planted_3cnf(5, ratio=ratio, seed=1)


def test_planted_3cnf_takes_a_zero_ratio():
    assert cnf.planted_3cnf(5, ratio=0, seed=1).formula.clauses == ()


@pytest.mark.parametrize("num_vars,seed", [(4, 0), (6, 1), (8, 2)])
def test_parity_3cnf_has_exactly_the_hidden_model(num_vars, seed):
    inst = cnf.parity_3cnf(num_vars, seed=seed)
    assert enumerate_models(inst.formula) == [inst.hidden_index]
    assert cnf.evaluate_bits(inst.formula, inst.hidden_bits)


def test_parity_3cnf_shape_and_reproducibility():
    a = cnf.parity_3cnf(9, seed=5)
    b = cnf.parity_3cnf(9, seed=5)
    assert a.formula == b.formula and a.hidden_index == b.hidden_index
    assert a.formula.num_clauses == 4 * 9
    assert all(len(c) == 3 for c in a.formula.clauses)
    assert cnf.is_3cnf(a.formula)
    assert cnf.parity_3cnf(9, seed=6).formula != a.formula


def test_parity_3cnf_rejects_tiny_systems():
    with pytest.raises(FormulaError):
        cnf.parity_3cnf(2)


def test_parse_marked_file(tmp_path):
    p = tmp_path / "marked.txt"
    p.write_text("# marked indices\n3\n\n17\n")
    assert cnf.parse_marked_file(p.read_text()) == [3, 17]
    with pytest.raises(ValueError):
        cnf.parse_marked_file("-4\n")
    with pytest.raises(ValueError):
        cnf.parse_marked_file("seven\n")
