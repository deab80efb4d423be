"""Classical search baselines: linear scan, random probing, Schoening walk.

These give the query counts that Grover runs are compared against.  The
scan and the probing strategies work on abstract predicates over 0..N-1
(any callable from an index to a bool, such as ``frozenset.__contains__``
of a marked set); the walk needs 3-CNF structure.  Every routine is deterministic given
its seed.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from .cnf import CnfFormula, FormulaError, evaluate_bits, is_3cnf
from .grover import optimal_iterations

WITH_REPLACEMENT = "with_replacement"
WITHOUT_REPLACEMENT = "without_replacement"


@dataclass(frozen=True)
class QueryLedger:
    """Outcome of a predicate search: how many queries, and what was found."""

    queries: int
    found: bool
    index: int | None


def deterministic_scan(predicate, n_items: int) -> QueryLedger:
    """Probe items 0, 1, ..., N-1 in order until the first hit.

    The ledger's query count is the 1-based position of the first marked
    item.
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    for x in range(n_items):
        if predicate(x):
            return QueryLedger(x + 1, True, x)
    return QueryLedger(n_items, False, None)


def _lazy_permutation(n: int, rng: random.Random):
    # Inside-out Fisher-Yates; only touched positions are materialized,
    # so huge N costs memory proportional to the queries actually made.
    pool: dict[int, int] = {}
    for i in range(n):
        j = rng.randrange(i, n)
        yield pool.get(j, j)
        pool[j] = pool.get(i, i)


def randomized_search(predicate, n_items: int, mode: str, seed: int = 0,
                      max_queries: int | None = None) -> QueryLedger:
    """Probe uniformly random items until the first hit.

    ``with_replacement`` draws independently (bounded by ``max_queries``
    if given); ``without_replacement`` walks a lazy random permutation
    and never exceeds N queries.
    """
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if mode not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        raise ValueError(f"unknown mode: {mode!r}")
    rng = random.Random(seed)
    queries = 0
    if mode == WITH_REPLACEMENT:
        while max_queries is None or queries < max_queries:
            x = rng.randrange(n_items)
            queries += 1
            if predicate(x):
                return QueryLedger(queries, True, x)
        return QueryLedger(queries, False, None)
    budget = n_items if max_queries is None else min(n_items, max_queries)
    for x in _lazy_permutation(n_items, rng):
        if queries >= budget:
            break
        queries += 1
        if predicate(x):
            return QueryLedger(queries, True, x)
    return QueryLedger(queries, False, None)


@dataclass(frozen=True)
class WalkConfig:
    """Schoening walk parameters.  Every restart walks up to 3k flips for
    a k-variable formula, the budget of Schoening's algorithm."""

    formula: CnfFormula
    max_restarts: int = 1000
    seed: int = 0

    def __post_init__(self):
        try:
            max_restarts = operator.index(self.max_restarts)
        except TypeError:
            raise ValueError(f"max_restarts must be an integer, got "
                             f"{self.max_restarts!r}") from None
        if max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        object.__setattr__(self, "max_restarts", max_restarts)


@dataclass(frozen=True)
class WalkResult:
    assignment: tuple[bool, ...] | None
    satisfied: bool
    restarts_used: int
    total_flips: int


def schoening_walk(config: WalkConfig) -> WalkResult:
    """Random walk for 3-SAT, restarted from fresh uniform assignments.

    Each restart walks up to 3k flips; every flip picks a uniformly
    random unsatisfied clause and flips a uniformly random variable in
    it.  A returned assignment is re-verified against the formula before
    it leaves this function.

    The walk draws from ``random.Random(config.seed)`` in this order, and
    seeded results depend on it:

    1. per restart, k calls of ``getrandbits(1)``, one per variable in
       order, give the starting assignment;
    2. per flip, a position in the list of unsatisfied clauses, then a
       literal position in that clause, each drawn as
       ``randrange(length)`` draws it: ``getrandbits(length.bit_length())``
       again until the value is below the length.

    The unsatisfied list starts in clause order; a clause that turns
    satisfied is replaced by the list's last entry, and one that turns
    unsatisfied is appended, clauses gaining a true literal first.
    """
    formula = config.formula
    if not is_3cnf(formula):
        raise FormulaError("the walk requires clauses of at most 3 literals")
    num_vars = formula.num_vars
    # Per clause: its variables (0-based, one per literal), its width and
    # the bits a draw below that width takes.
    clauses = [(tuple(abs(lit) - 1 for lit in c), len(c), len(c).bit_length())
               for c in formula.clauses]
    # One entry per literal occurrence, so a repeated literal counts twice
    # and x or not-x gains one true literal as it loses one.
    pos: list[list[int]] = [[] for _ in range(num_vars)]
    neg: list[list[int]] = [[] for _ in range(num_vars)]
    for ci, c in enumerate(formula.clauses):
        for lit in c:
            (pos if lit > 0 else neg)[abs(lit) - 1].append(ci)
    # moves[v][b]: (clauses that gain a true literal, clauses that lose
    # one) when variable v flips away from bit b.
    moves = [((p, q), (q, p))
             for p, q in zip(map(tuple, pos), map(tuple, neg))]
    num_clauses = len(clauses)
    unsat_pos = [0] * num_clauses
    flips_budget = 3 * num_vars
    getrandbits = random.Random(config.seed).getrandbits
    total_flips = 0
    for restart in range(1, config.max_restarts + 1):
        bits = [getrandbits(1) for _ in range(num_vars)]
        sat_count = [0] * num_clauses
        # The clauses v's bit satisfies are those that lose a true
        # literal when v flips away from it.
        for v, b in enumerate(bits):
            for ci in moves[v][b][1]:
                sat_count[ci] += 1
        unsat = [ci for ci, c in enumerate(sat_count) if not c]
        for p, ci in enumerate(unsat):
            unsat_pos[ci] = p
        for _ in range(flips_budget):
            u = len(unsat)
            if not u:
                break
            nbits = u.bit_length()
            r = getrandbits(nbits)
            while r >= u:
                r = getrandbits(nbits)
            cvars, width, nbits = clauses[unsat[r]]
            r = getrandbits(nbits)
            while r >= width:
                r = getrandbits(nbits)
            v = cvars[r]
            b = bits[v]
            bits[v] = b ^ 1
            gains, loses = moves[v][b]
            for ci in gains:
                c = sat_count[ci]
                sat_count[ci] = c + 1
                if not c:
                    p = unsat_pos[ci]
                    last = unsat.pop()
                    if last != ci:
                        unsat[p] = last
                        unsat_pos[last] = p
            for ci in loses:
                c = sat_count[ci] - 1
                sat_count[ci] = c
                if not c:
                    unsat_pos[ci] = len(unsat)
                    unsat.append(ci)
            total_flips += 1
        if not unsat and evaluate_bits(formula, bits):
            return WalkResult(tuple(map(bool, bits)), True, restart,
                              total_flips)
    return WalkResult(None, False, config.max_restarts, total_flips)


@dataclass(frozen=True)
class CrossoverRow:
    """Analytic query counts of every strategy at one problem size."""

    k: int
    n_items: int
    marked_count: int
    grover_queries: int
    deterministic_mean_queries: float
    randomized_without_replacement_mean: float
    randomized_with_replacement_mean: float
    schoening_flips_estimate: float


def crossover_table(k_values, marked_count: int = 1) -> list[CrossoverRow]:
    """Expected query counts per strategy over a range of register sizes.

    The scan and the no-replacement probe average (N+1)/(M+1) over
    uniformly placed marked sets; replacement probing averages N/M; the
    walk column is the 3k * (4/3)^k restart-cost curve for k-variable
    3-SAT, listed for scale whenever the predicate has that form.
    """
    if marked_count < 1:
        raise ValueError("marked_count must be >= 1")
    rows = []
    for k in k_values:
        n = 1 << k
        if marked_count > n:
            raise ValueError(f"marked_count {marked_count} exceeds N=2^{k}")
        rows.append(CrossoverRow(
            k=k,
            n_items=n,
            marked_count=marked_count,
            grover_queries=optimal_iterations(n, marked_count),
            deterministic_mean_queries=(n + 1) / (marked_count + 1),
            randomized_without_replacement_mean=(n + 1) / (marked_count + 1),
            randomized_with_replacement_mean=n / marked_count,
            schoening_flips_estimate=3.0 * k * (4.0 / 3.0) ** k,
        ))
    return rows


def coupon_collector_mean(marked_count: int) -> float:
    """M * H_M: expected draws to see all M outcomes of a uniform sampler."""
    return marked_count * sum(1.0 / i for i in range(1, marked_count + 1))
