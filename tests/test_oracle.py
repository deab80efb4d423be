"""Phase oracle compilation from marked sets and CNF formulas."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiddsim import cnf, dense, oracle
from quiddsim.cnf import CnfFormula
from quiddsim.oracle import OracleError, Predicate
from quiddsim.quidd import (DiagramDepthError, QuiddManager,
                             SpaceMismatchError, vector_space)


def phase_entries(m, orc):
    return m.to_dense(orc.phase_vector, vector_space(orc.k))


# ---------------------------------------------------------------------------
# marked sets


def test_single_marked_k5_has_five_internal_nodes(manager):
    orc = oracle.compile_marked_set(manager, 5, [19])
    c = manager.count_nodes(orc.phase_vector)
    assert (c.internal, c.terminal) == (5, 2)
    assert orc.marked_count == 1


@pytest.mark.parametrize("k", range(1, 25))
def test_single_marked_internal_count_equals_k(k):
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, [(1 << k) - 1 if k > 1 else 0])
    assert m.count_nodes(orc.phase_vector).internal == k


def test_all_marked_is_constant(manager):
    orc = oracle.compile_marked_set(manager, 3, range(8))
    c = manager.count_nodes(orc.phase_vector)
    assert (c.internal, c.terminal) == (0, 1)
    assert orc.marked_count == 8
    assert manager.value(orc.phase_vector) == -1


def test_none_marked_is_constant_plus_one(manager):
    orc = oracle.compile_marked_set(manager, 4, [])
    assert manager.count_nodes(orc.phase_vector).internal == 0
    assert orc.marked_count == 0
    assert manager.value(orc.phase_vector) == 1


def test_marked_5_of_8_dense_diagonal(manager):
    orc = oracle.compile_marked_set(manager, 3, [5])
    assert np.array_equal(
        phase_entries(manager, orc),
        np.array([1, 1, 1, 1, 1, -1, 1, 1], dtype=complex))


def test_marked_set_rejects_out_of_range(manager):
    with pytest.raises(OracleError):
        oracle.compile_marked_set(manager, 3, [8])
    with pytest.raises(OracleError):
        oracle.compile_marked_set(manager, 3, [-1])
    with pytest.raises(OracleError):
        oracle.compile_marked_set(manager, 0, [0])


@pytest.mark.parametrize("bad", [2.7, 3.0, "3", None])
def test_marked_set_rejects_non_integer_indices(manager, bad):
    with pytest.raises(OracleError):
        oracle.compile_marked_set(manager, 3, [1, bad])


def test_duplicate_indices_collapse(manager):
    orc = oracle.compile_marked_set(manager, 4, [7, 7, 7])
    assert orc.marked_count == 1


@given(k=st.integers(1, 8), data=st.data())
def test_marked_set_phase_entries(k, data):
    n = 1 << k
    marked = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, marked)
    assert orc.marked_count == len(marked)
    got = phase_entries(m, orc)
    expect = dense.phase_vector(k, sorted(marked))
    assert np.array_equal(got, expect)


@given(k=st.integers(2, 20), seed=st.integers(0, 10**6))
def test_marked_count_survives_large_k(k, seed):
    # Counting happens on the diagram, never by enumeration.
    import random
    rng = random.Random(seed)
    n = 1 << k
    marked = {rng.randrange(n) for _ in range(rng.randrange(1, 40))}
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, marked)
    assert orc.marked_count == len(marked)


# ---------------------------------------------------------------------------
# CNF


def test_tautology_cnf_is_constant_minus_one(manager):
    orc = oracle.compile_cnf(manager, CnfFormula(2, ()))
    assert manager.count_nodes(orc.phase_vector).internal == 0
    assert orc.marked_count == 4
    assert manager.value(orc.phase_vector) == -1


def test_conjunction_of_unit_clauses(manager):
    orc = oracle.compile_cnf(manager, CnfFormula(2, ((1,), (2,))))
    assert orc.marked_count == 1
    assert oracle.any_marked_index(manager, orc) == 0b11


def test_random_3cnf_model_count_matches_brute_force(manager):
    f = cnf.random_3cnf(num_vars=10, num_clauses=30, seed=4)
    orc = oracle.compile_cnf(manager, f)
    models = cnf.enumerate_models(f)
    assert orc.marked_count == len(models)
    got = phase_entries(manager, orc)
    for x in range(1 << 10):
        assert got[x] == (-1 if x in set(models) else 1)


@given(seed=st.integers(0, 10**5), num_clauses=st.integers(0, 24))
def test_cnf_phase_matches_evaluation(seed, num_clauses):
    f = cnf.random_3cnf(num_vars=6, num_clauses=num_clauses, seed=seed)
    m = QuiddManager()
    orc = oracle.compile_cnf(m, f)
    got = phase_entries(m, orc)
    for x in range(64):
        assert got[x] == (-1 if cnf.evaluate_index(f, x) else 1)


def test_unsatisfiable_cnf_marks_nothing(manager):
    clauses = tuple((s1 * 1, s2 * 2, s3 * 3)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
    orc = oracle.compile_cnf(manager, CnfFormula(3, clauses))
    assert orc.marked_count == 0
    assert oracle.any_marked_index(manager, orc) is None


def test_tautological_clause_is_dropped(manager):
    orc = oracle.compile_cnf(manager, CnfFormula(2, ((1, -1),)))
    assert orc.marked_count == 4


def _chain(n):
    """(x_i or x_i+1) for i < n: a CNF whose diagram is linear in n."""
    return CnfFormula(n, tuple((i, i + 1) for i in range(1, n)))


def test_chain_cnf_compiles_to_a_linear_diagram(manager):
    orc = oracle.compile_cnf(manager, _chain(400))
    assert manager.count_nodes(orc.phase_vector).internal == 798


def test_compile_cnf_checks_spaces_a_constant_number_of_times(monkeypatch):
    # The clause indicators use only row variables, so the conjunction
    # needs no space check per clause.
    calls = []
    span = QuiddManager._span

    def counted(self, ref):
        calls.append(ref)
        return span(self, ref)

    monkeypatch.setattr(QuiddManager, "_span", counted)
    orc = oracle.compile_cnf(QuiddManager(), _chain(60))
    assert orc.marked_count > 0
    assert len(calls) <= 2


def test_too_deep_diagrams_raise_a_typed_error(manager):
    with pytest.raises(DiagramDepthError):
        oracle.compile_cnf(manager, _chain(1200))
    with pytest.raises(DiagramDepthError):
        oracle.compile_marked_set(manager, 1200, [5])
    # One node, but 1199 skipped levels above it: the index search is a
    # loop, so depth does not bound it.
    shallow = oracle.compile_cnf(manager, CnfFormula(1200, ((1200,),)))
    assert oracle.any_marked_index(manager, shallow) == 1
    assert oracle.any_unmarked_index(manager, shallow) == 0
    # Everything made before the failure is complete: the manager still works.
    orc = oracle.compile_cnf(manager, _chain(400))
    assert manager.count_nodes(orc.phase_vector).internal == 798


# ---------------------------------------------------------------------------
# counting, application, reports


def test_model_count_constant_minus_one(manager):
    orc = oracle.compile_marked_set(manager, 4, range(16))
    assert orc.marked_count == 16


def test_model_count_single_marked_k8(manager):
    orc = oracle.compile_marked_set(manager, 8, [200])
    assert orc.marked_count == 1


def test_model_count_random_37_of_k12(manager):
    import random
    rng = random.Random(21)
    marked = set()
    while len(marked) < 37:
        marked.add(rng.randrange(1 << 12))
    orc = oracle.compile_marked_set(manager, 12, marked)
    assert orc.marked_count == 37


def test_apply_oracle_empty_set_is_reference_neutral(manager):
    orc = oracle.compile_marked_set(manager, 4, [])
    v = manager.from_dense(np.arange(16, dtype=complex), vector_space(4))
    assert oracle.apply_oracle(manager, orc, v) == v


def test_apply_oracle_on_uniform_state(manager):
    orc = oracle.compile_marked_set(manager, 2, [3])
    u = manager.from_dense(dense.uniform_state(2), vector_space(2))
    got = manager.to_dense(oracle.apply_oracle(manager, orc, u), vector_space(2))
    assert np.max(np.abs(got - np.array([0.5, 0.5, 0.5, -0.5]))) < 1e-12


def test_apply_oracle_matches_dense_product(manager):
    rng = np.random.default_rng(14)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    marked = [3, 17, 40, 41]
    orc = oracle.compile_marked_set(manager, 6, marked)
    rv = manager.from_dense(v, vector_space(6))
    got = manager.to_dense(oracle.apply_oracle(manager, orc, rv), vector_space(6))
    assert np.max(np.abs(got - v * dense.phase_vector(6, marked))) < 1e-12


def test_apply_oracle_is_involution(manager):
    orc = oracle.compile_marked_set(manager, 5, [1, 2, 30])
    rng = np.random.default_rng(15)
    v = manager.from_dense(rng.normal(size=32).astype(complex), vector_space(5))
    once = oracle.apply_oracle(manager, orc, v)
    assert oracle.apply_oracle(manager, orc, once) == v


def test_indicator_vector(manager):
    orc = oracle.compile_marked_set(manager, 3, [2, 6])
    got = manager.to_dense(oracle.indicator_vector(manager, orc), vector_space(3))
    assert np.array_equal(got, np.array([0, 0, 1, 0, 0, 0, 1, 0], dtype=complex))


def test_size_report_single_marked_k16(manager):
    orc = oracle.compile_marked_set(manager, 16, [12345])
    internal, terminal = manager.count_nodes(orc.phase_vector)
    assert internal == 16
    assert terminal == 2
    assert (orc.k, orc.marked_count) == (16, 1)


def test_size_report_all_marked(manager):
    orc = oracle.compile_marked_set(manager, 6, range(64))
    assert manager.count_nodes(orc.phase_vector).internal == 0


def test_dense_random_sets_grow_and_are_recorded():
    import random
    sizes = []
    for k in range(8, 15):
        m = QuiddManager()
        rng = random.Random(100 + k)
        marked = set()
        while len(marked) < 1 << (k - 1):
            marked.add(rng.randrange(1 << k))
        orc = oracle.compile_marked_set(m, k, marked)
        sizes.append(m.count_nodes(orc.phase_vector).internal)
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]


def test_any_marked_and_unmarked(manager):
    orc = oracle.compile_marked_set(manager, 5, [9])
    assert oracle.any_marked_index(manager, orc) == 9
    unmarked = oracle.any_unmarked_index(manager, orc)
    assert unmarked is not None and unmarked != 9
    full = oracle.compile_marked_set(manager, 3, range(8))
    assert oracle.any_unmarked_index(manager, full) is None


def test_index_search_rejects_an_oracle_deeper_than_its_k(manager):
    # At k = 3 the search for a marked index ends on the node of qubit 3,
    # and the one for an unmarked index on a terminal; both must refuse.
    good = oracle.compile_marked_set(manager, 4, [5])
    deep = oracle.Oracle(good.phase_vector, 3, 1, good.provenance)
    with pytest.raises(SpaceMismatchError):
        oracle.any_marked_index(manager, deep)
    with pytest.raises(SpaceMismatchError):
        oracle.any_unmarked_index(manager, deep)


@given(k=st.integers(1, 8), data=st.data())
def test_index_search_finds_the_smallest_match(k, data):
    n = 1 << k
    marked = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    if data.draw(st.booleans()):
        marked = set(range(n)) - marked     # so near-full sets come up too
    unmarked = set(range(n)) - marked
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, marked)
    assert oracle.any_marked_index(m, orc) == min(marked, default=None)
    assert oracle.any_unmarked_index(m, orc) == min(unmarked, default=None)


def test_phase_terminal_other_than_plus_minus_one_is_rejected(manager):
    ref = manager.from_dense([1, 0.5], vector_space(1))
    with pytest.raises(OracleError, match="not \\+/-1"):
        oracle._count_marked(manager, ref, 1)


def test_predicate_validation():
    with pytest.raises(OracleError):
        Predicate(k=3)
    with pytest.raises(OracleError):
        Predicate(k=3, marked=frozenset({1}), formula=CnfFormula(3, ()))
