"""Classical baseline strategies: scan, random probing, walk, crossover."""

import hashlib
import math
import random
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

from quiddsim import baselines
from quiddsim.baselines import (
    QueryLedger,
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    WalkConfig,
    coupon_collector_mean,
    crossover_table,
    deterministic_scan,
    randomized_search,
    schoening_walk,
)
from quiddsim.cnf import (CnfFormula, FormulaError, evaluate_bits,
                          parity_3cnf, planted_3cnf)


class RecordingPredicate:
    """False for everything; remembers the probing order."""

    def __init__(self):
        self.seen = []

    def __call__(self, x):
        self.seen.append(x)
        return False


# ---------------------------------------------------------------------------
# deterministic scan


def test_scan_first_position_costs_one_query():
    led = deterministic_scan(frozenset([0]).__contains__, 16)
    assert led == QueryLedger(1, True, 0)


def test_scan_reports_one_based_position():
    led = deterministic_scan(frozenset([11]).__contains__, 16)
    assert led.queries == 12
    assert led.found and led.index == 11


def test_scan_miss_consumes_all_items():
    led = deterministic_scan(frozenset().__contains__, 9)
    assert led == QueryLedger(9, False, None)


def test_scan_rejects_empty_range():
    with pytest.raises(ValueError):
        deterministic_scan(frozenset([0]).__contains__, 0)


@given(st.sets(st.integers(min_value=0, max_value=255), min_size=1))
def test_scan_cost_is_position_of_first_marked_item(marked):
    led = deterministic_scan(frozenset(marked).__contains__, 256)
    assert led.queries == min(marked) + 1
    assert led.index == min(marked)


def test_scan_mean_over_all_positions_is_half_n_plus_one():
    n = 64
    costs = [deterministic_scan(frozenset([p]).__contains__, n).queries
             for p in range(n)]
    assert statistics.mean(costs) == (n + 1) / 2


# ---------------------------------------------------------------------------
# randomized probing


def test_randomized_rejects_unknown_mode_and_empty_range():
    with pytest.raises(ValueError):
        randomized_search(frozenset([0]).__contains__, 4, "sideways")
    with pytest.raises(ValueError):
        randomized_search(frozenset([0]).__contains__, 0, WITH_REPLACEMENT)


def test_randomized_all_marked_costs_one_query():
    pred = frozenset(range(32)).__contains__
    for mode in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        led = randomized_search(pred, 32, mode, seed=3)
        assert led.queries == 1 and led.found


def test_randomized_is_reproducible_per_seed():
    pred = frozenset([500]).__contains__
    a = randomized_search(pred, 1 << 12, WITH_REPLACEMENT, seed=9)
    b = randomized_search(pred, 1 << 12, WITH_REPLACEMENT, seed=9)
    assert a == b
    assert a != randomized_search(pred, 1 << 12, WITH_REPLACEMENT, seed=10)


def test_without_replacement_visits_each_item_exactly_once():
    rec = RecordingPredicate()
    led = randomized_search(rec, 40, WITHOUT_REPLACEMENT, seed=5)
    assert led == QueryLedger(40, False, None)
    assert sorted(rec.seen) == list(range(40))


def test_with_replacement_respects_query_budget():
    led = randomized_search(frozenset().__contains__, 16, WITH_REPLACEMENT,
                            seed=0, max_queries=25)
    assert led == QueryLedger(25, False, None)


def test_without_replacement_budget_caps_below_n():
    led = randomized_search(frozenset().__contains__, 100, WITHOUT_REPLACEMENT,
                            seed=0, max_queries=7)
    assert led == QueryLedger(7, False, None)


def test_without_replacement_mean_matches_negative_hypergeometric():
    n, m = 64, 4
    pred = frozenset(range(0, n, n // m)).__contains__
    trials = 4000
    mean = statistics.mean(
        randomized_search(pred, n, WITHOUT_REPLACEMENT, seed=t).queries
        for t in range(trials))
    # Tail-sum identity: E[T] = sum_t C(n-t, m)/C(n, m) = (n+1)/(m+1).
    expect = sum(math.comb(n - t, m) / math.comb(n, m) for t in range(n + 1))
    assert expect == pytest.approx((n + 1) / (m + 1))
    assert mean == pytest.approx(expect, rel=0.05)


def test_with_replacement_median_stays_near_geometric_law():
    n, m = 1 << 12, 16
    pred = frozenset(range(0, n, n // m)).__contains__
    meds = [randomized_search(pred, n, WITH_REPLACEMENT, seed=t).queries
            for t in range(20000)]
    assert statistics.median(meds) <= (n / (2 * m)) * 1.4


# ---------------------------------------------------------------------------
# Schoening walk


def test_walk_solves_a_single_clause_instantly():
    formula = CnfFormula(num_vars=3, clauses=((1, 2, 3),))
    res = schoening_walk(WalkConfig(formula, seed=1))
    assert res.satisfied
    assert evaluate_bits(formula, res.assignment)
    assert res.restarts_used == 1


def test_walk_rejects_wide_clauses():
    formula = CnfFormula(num_vars=5, clauses=((1, 2, 3, 4),))
    with pytest.raises(FormulaError):
        schoening_walk(WalkConfig(formula))


def test_walk_reports_failure_on_unsatisfiable_formula():
    clauses = tuple((s1 * 1, s2 * 2, s3 * 3)
                    for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1))
    formula = CnfFormula(num_vars=3, clauses=clauses)
    res = schoening_walk(WalkConfig(formula, max_restarts=50, seed=2))
    assert not res.satisfied
    assert res.assignment is None
    assert res.restarts_used == 50


@pytest.mark.parametrize("seed", range(6))
def test_walk_returns_only_verified_assignments(seed):
    # The walk's seed must not be the instance's: planted_3cnf draws its
    # hidden model with the same first getrandbits(1) calls, so the walk
    # would start on it and never flip.
    inst = planted_3cnf(12, seed=seed)
    res = schoening_walk(WalkConfig(inst.formula, max_restarts=4000,
                                    seed=5000 + seed))
    assert res.satisfied
    assert evaluate_bits(inst.formula, res.assignment)
    assert res.restarts_used <= 4000
    assert res.total_flips > 0


def test_walk_is_reproducible_per_seed():
    inst = planted_3cnf(10, seed=3)
    a = schoening_walk(WalkConfig(inst.formula, seed=11))
    b = schoening_walk(WalkConfig(inst.formula, seed=11))
    assert a == b


def test_walk_per_restart_rate_tracks_three_quarters_power_k():
    # Unique-solution parity formulas give local search no gradient, so
    # per-restart success hugs the worst-case restart law.
    k = 6
    hits = 0
    walks = 400
    for t in range(walks):
        inst = parity_3cnf(k, seed=t % 10)
        res = schoening_walk(WalkConfig(inst.formula, max_restarts=1,
                                        seed=5000 + t))
        hits += res.satisfied
    rate = hits / walks
    law = (3 / 4) ** k
    assert law / 4 <= rate <= law * 4


def test_walk_config_validation():
    formula = CnfFormula(num_vars=3, clauses=((1, 2, 3),))
    with pytest.raises(ValueError):
        WalkConfig(formula, max_restarts=0)


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", None])
def test_walk_config_rejects_non_integer_max_restarts(bad):
    formula = CnfFormula(num_vars=3, clauses=((1, 2, 3),))
    with pytest.raises(ValueError, match="integer"):
        WalkConfig(formula, max_restarts=bad)


def _pinned_walks():
    for n in range(12, 21):
        formula = planted_3cnf(n, seed=n).formula
        for w in range(3):
            yield WalkConfig(formula, max_restarts=100_000, seed=1000 * n + w)
    for n in range(8, 17):
        formula = parity_3cnf(n, seed=n).formula
        for w in range(3):
            yield WalkConfig(formula, max_restarts=100_000, seed=2000 * n + w)
    # The parity formula's only model excluded by one more clause: every
    # restart walks its full 3k flips and the walk runs out of restarts.
    inst = parity_3cnf(10, seed=0)
    block = tuple(-(v + 1) if inst.hidden_bits[v] else v + 1 for v in range(3))
    formula = CnfFormula(10, inst.formula.clauses + (block,))
    yield WalkConfig(formula, max_restarts=300, seed=3)


def test_walk_results_are_pinned():
    # Seeded walks are part of the results (perfbench and criterion 7
    # read them), so the draw order and the bookkeeping may not change.
    h = hashlib.sha256()
    last = None
    for cfg in _pinned_walks():
        last = schoening_walk(cfg)
        h.update(repr((last.assignment, last.restarts_used,
                       last.total_flips)).encode())
    assert (last.satisfied, last.restarts_used, last.total_flips) == (
        False, 300, 9000)
    assert h.hexdigest() == ("32eb2383a10e86803785d6ab980c7480"
                             "15f25767526f4748623c1f294bbcec9d")


def reference_walk(formula, max_restarts, seed):
    """The walk written plainly, drawing through ``randrange``."""
    rng = random.Random(seed)
    n = formula.num_vars
    clauses = formula.clauses
    total = 0
    for restart in range(1, max_restarts + 1):
        bits = [bool(rng.getrandbits(1)) for _ in range(n)]
        count = [sum(bits[abs(lit) - 1] == (lit > 0) for lit in c)
                 for c in clauses]
        unsat = [ci for ci, k in enumerate(count) if k == 0]
        for _ in range(3 * n):
            if not unsat:
                break
            clause = clauses[unsat[rng.randrange(len(unsat))]]
            v = abs(clause[rng.randrange(len(clause))]) - 1
            bits[v] = not bits[v]
            occ = [(ci, (lit > 0) == bits[v]) for ci, c in enumerate(clauses)
                   for lit in c if abs(lit) - 1 == v]
            for ci in [ci for ci, gains in occ if gains]:
                count[ci] += 1
                if count[ci] == 1:
                    unsat[unsat.index(ci)] = unsat[-1]
                    unsat.pop()
            for ci in [ci for ci, gains in occ if not gains]:
                count[ci] -= 1
                if count[ci] == 0:
                    unsat.append(ci)
            total += 1
        if not unsat and evaluate_bits(formula, bits):
            return (tuple(bits), True, restart, total)
    return (None, False, max_restarts, total)


@st.composite
def small_cnfs(draw):
    n = draw(st.integers(1, 8))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=3),
                            min_size=1, max_size=5 * n))
    return CnfFormula(n, tuple(map(tuple, clauses)))


@settings(max_examples=300)
@given(small_cnfs(), st.integers(1, 5), st.integers(0, 2 ** 64))
@example(CnfFormula(2, ((1, 1, -2), (-1, 1), (2,), (-2, -2))), 5, 7)
def test_walk_draws_the_randrange_stream(formula, max_restarts, seed):
    # Covers clause widths 1-3, repeated literals and x or not-x clauses.
    got = schoening_walk(WalkConfig(formula, max_restarts=max_restarts,
                                    seed=seed))
    want = reference_walk(formula, max_restarts, seed)
    assert (got.assignment, got.satisfied, got.restarts_used,
            got.total_flips) == want


# ---------------------------------------------------------------------------
# crossover table


def test_crossover_pins_the_megaitem_row():
    row = crossover_table([20])[0]
    assert row.n_items == 1 << 20
    assert row.grover_queries == 804
    assert row.deterministic_mean_queries == 524288.5
    assert row.randomized_with_replacement_mean == 1 << 20


def test_crossover_grover_column_grows_like_sqrt_two():
    rows = crossover_table(range(10, 17))
    for prev, cur in zip(rows, rows[1:]):
        ratio = cur.grover_queries / prev.grover_queries
        assert abs(ratio - math.sqrt(2)) < 0.02


def test_crossover_saturated_marking_needs_at_most_one_query():
    row = crossover_table([3], marked_count=8)[0]
    assert row.grover_queries <= 1


def test_crossover_walk_column_is_restart_cost_curve():
    row = crossover_table([20])[0]
    assert row.schoening_flips_estimate == pytest.approx(60 * (4 / 3) ** 20)


def test_crossover_validates_marked_count():
    with pytest.raises(ValueError):
        crossover_table([4], marked_count=0)
    with pytest.raises(ValueError):
        crossover_table([2], marked_count=5)


# ---------------------------------------------------------------------------
# helpers


def test_coupon_collector_mean_known_values():
    assert coupon_collector_mean(1) == 1.0
    assert coupon_collector_mean(4) == pytest.approx(25 / 3, abs=1e-12)

