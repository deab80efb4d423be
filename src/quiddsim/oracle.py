"""Diagonal phase oracles compiled to diagrams.

An oracle is a +/-1 vector diagram: -1 on marked indices, +1 elsewhere.
Applying it is an elementwise product with the state, so no ancilla
qubits or controlled-gate networks are ever materialized.  The marked
count is recovered from the diagram itself by weighted path counting,
which stays exact for any k because it never enumerates indices.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass

from .cnf import CnfFormula
from .quidd import QuiddError, QuiddManager, depth_checked


class OracleError(QuiddError):
    """Invalid oracle construction input."""


@dataclass(frozen=True)
class Predicate:
    """Search predicate: either an explicit marked set or a CNF formula."""

    k: int
    marked: frozenset[int] | None = None
    formula: CnfFormula | None = None

    def __post_init__(self):
        if (self.marked is None) == (self.formula is None):
            raise OracleError("exactly one of marked/formula must be given")


@dataclass(frozen=True)
class Oracle:
    """Compiled phase oracle.  ``phase_vector`` is a ref into the manager
    that compiled it; ``marked_count`` was counted from the diagram."""

    phase_vector: int
    k: int
    marked_count: int
    provenance: Predicate


def _marked_leaf(v: complex) -> int:
    if v == -1:
        return 1
    if v == 1:
        return 0
    raise OracleError(f"phase oracle terminal {v!r} is not +/-1")


def _count_marked(m: QuiddManager, ref: int, k: int) -> int:
    """Number of -1 entries, by path counting weighted with 2^(skipped levels).

    Raises :class:`OracleError` if a reachable terminal is not +/-1.
    """
    counts = m.subtree_sums(ref, k, _marked_leaf)
    top = k if m.is_terminal(ref) else m.var(ref) // 2
    return counts[ref] << top


@depth_checked
def compile_marked_set(m: QuiddManager, k: int, indices) -> Oracle:
    """Compile an explicit marked set into a phase oracle.

    Cost is O(|indices| * k); a single marked index always compiles to a
    diagram with exactly k internal nodes, one per qubit on the path.
    An index that is not an integer raises :class:`OracleError`.
    """
    if k < 1:
        raise OracleError(f"oracles need at least one qubit, got {k}")
    try:
        idx = sorted({operator.index(x) for x in indices})
    except TypeError as e:
        raise OracleError(f"marked indices must be integers: {e}") from None
    if idx and not (0 <= idx[0] and idx[-1] < (1 << k)):
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise OracleError(f"marked index {bad} out of range for {k} qubits")
    plus = m.terminal(1)
    minus = m.terminal(-1)
    ref = _build_marked(m, idx, plus, minus, 0, 0, 1 << k, 0, len(idx))
    return Oracle(ref, k, _count_marked(m, ref, k),
                  Predicate(k, marked=frozenset(idx)))


def _build_marked(m: QuiddManager, idx: list[int], plus: int, minus: int,
                  level: int, lo: int, hi: int, i0: int, i1: int) -> int:
    """Phase diagram of the index block [lo, hi), whose marked indices
    are idx[i0:i1]."""
    if i0 == i1:
        return plus
    if i1 - i0 == hi - lo:
        return minus
    mid = (lo + hi) >> 1
    split = bisect_left(idx, mid, i0, i1)
    return m.node(2 * level,
                  _build_marked(m, idx, plus, minus, level + 1, lo, mid, i0, split),
                  _build_marked(m, idx, plus, minus, level + 1, mid, hi, split, i1))


def _clause_indicator(m: QuiddManager, clause) -> int:
    """0/1 diagram of one clause; at most one internal node per literal."""
    signs: dict[int, bool] = {}
    for lit in clause:
        v = abs(lit)
        pos = lit > 0
        if signs.get(v, pos) != pos:
            return m.terminal(1)        # v or not-v: tautological clause
        signs[v] = pos
    one = m.terminal(1)
    cur = m.terminal(0)
    for v in sorted(signs, reverse=True):
        var = 2 * (v - 1)
        cur = m.node(var, cur, one) if signs[v] else m.node(var, one, cur)
    return cur


@depth_checked
def compile_cnf(m: QuiddManager, formula: CnfFormula) -> Oracle:
    """Compile a CNF formula into a phase oracle.

    Clause indicators are conjoined by elementwise product in input
    order, then the 0/1 indicator is mapped to +/-1 phases (1 -> -1).
    """
    acc = m.terminal(1)
    # The indicators use only row variables: no kind check is needed.
    for clause in formula.clauses:
        acc = m._mul(acc, _clause_indicator(m, clause))
    phase = m.apply("add", m.terminal(1),
                    m.apply("mul", m.terminal(-2.0), acc))
    return Oracle(phase, formula.num_vars,
                  _count_marked(m, phase, formula.num_vars),
                  Predicate(formula.num_vars, formula=formula))


def apply_oracle(m: QuiddManager, oracle: Oracle, vec: int) -> int:
    """One oracle query: elementwise phase product with the state."""
    return m.apply("mul", oracle.phase_vector, vec)


def indicator_vector(m: QuiddManager, oracle: Oracle) -> int:
    """(1 - phase)/2: the 0/1 membership vector of the marked set."""
    # The sum comes first and 0.5 is interned last: the order in which
    # terminals are interned fixes the node numbering.
    inner = m.apply("add", m.terminal(1),
                    m.apply("mul", m.terminal(-1.0), oracle.phase_vector))
    return m.apply("mul", m.terminal(0.5), inner)


def _find_index(m: QuiddManager, ref: int, k: int,
                want_marked: bool) -> int | None:
    """Smallest index whose phase matches, or None; one pass of k levels.

    A reduced +/-1 diagram has both phases below every internal node, so
    the low child holds a match unless it is a terminal of the other
    phase.  Skipped bits are 0.  A diagram that does not fit k qubits
    raises :class:`SpaceMismatchError`.
    """
    m._check_vector(ref, k)
    x = 0
    cur = ref
    for q in range(k):
        x <<= 1
        if m.var(cur) == 2 * q:
            lo = m.low(cur)
            if m.is_terminal(lo) and (m.value(lo).real < 0) != want_marked:
                cur = m.high(cur)
                x |= 1
            else:
                cur = lo
    if (m.value(cur).real < 0) == want_marked:
        return x
    return None


def any_marked_index(m: QuiddManager, oracle: Oracle) -> int | None:
    return _find_index(m, oracle.phase_vector, oracle.k, True)


def any_unmarked_index(m: QuiddManager, oracle: Oracle) -> int | None:
    return _find_index(m, oracle.phase_vector, oracle.k, False)
