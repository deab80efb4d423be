"""Search engine behaviour: iteration counts, traces, measurement."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quiddsim import gates, grover, oracle, quidd
from quiddsim.grover import GroverParams, NoSolutionError
from quiddsim.quidd import QuiddManager, SpaceMismatchError

import dense_ref as dense
from dense_ref import (amplitude_trace_report, from_dense, to_dense,
                       vector_space)


def single_marked_run(k, index, **kw):
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, [index])
    return m, orc, grover.run(m, orc, GroverParams(k=k, **kw))


# ---------------------------------------------------------------------------
# iteration count


def test_optimal_iterations_n4():
    assert grover.optimal_iterations(4, 1) == 1
    assert abs(grover.ideal_success_probability(1, 4, 1) - 1.0) < 1e-12


def test_optimal_iterations_all_marked():
    assert grover.optimal_iterations(4, 4) == 0
    assert grover.optimal_iterations(16, 16) == 0


def test_optimal_iterations_large_register():
    assert grover.optimal_iterations(1 << 20, 1) == 804


def test_optimal_iterations_m4_k6():
    assert grover.optimal_iterations(64, 4) == 3


def test_optimal_iterations_beats_neighbours():
    for n, m_count in ((64, 1), (256, 3), (1 << 12, 5), (1 << 16, 2)):
        r = grover.optimal_iterations(n, m_count)
        p = grover.ideal_success_probability(r, n, m_count)
        for other in (r - 1, r + 1):
            if other >= 0:
                assert p >= grover.ideal_success_probability(other, n, m_count)


def test_optimal_iterations_rejects_no_solution():
    with pytest.raises(NoSolutionError):
        grover.optimal_iterations(8, 0)


def test_params_validation():
    with pytest.raises(ValueError):
        GroverParams(k=0)
    with pytest.raises(ValueError):
        GroverParams(k=2, iterations=-1)
    with pytest.raises(ValueError):
        GroverParams(k=2, shots=-1)


# ---------------------------------------------------------------------------
# initialization


def test_initial_state_is_uniform(manager):
    state = grover.initialize_state(manager, 5)
    for idx in (0, 13, 31):
        assert abs(manager.entry_at(state, idx, k=5) - 1 / math.sqrt(32)) < 1e-12


def test_initial_state_is_one_terminal(manager):
    state = grover.initialize_state(manager, 8)
    c = manager.count_nodes(state)
    assert (c.internal, c.terminal) == (0, 1)


def test_initial_state_matches_dense_by_reference(manager):
    for k in range(1, 11):
        state = grover.initialize_state(manager, k)
        assert state == from_dense(manager, dense.uniform_state(k),
                                   vector_space(k))


def test_initial_state_normalized_to_thirty_qubits(manager):
    for k in (1, 7, 16, 24, 30):
        state = grover.initialize_state(manager, k)
        norm = manager.inner_product(state, state, k).real
        assert abs(norm - 1) < 1e-9


# ---------------------------------------------------------------------------
# single iterations


def test_iterate_reaches_certainty_at_n4(manager):
    orc = oracle.compile_marked_set(manager, 2, [3])
    state = grover.initialize_state(manager, 2)
    out = manager.matvec(gates.diffusion(manager, 2), state, 2,
                         orc.phase_vector)
    got = to_dense(manager, out, vector_space(2))
    assert np.max(np.abs(got - np.array([0, 0, 0, 1], dtype=complex))) < 1e-12


def test_iterate_with_empty_oracle_fixes_uniform(manager):
    orc = oracle.compile_marked_set(manager, 3, [])
    state = grover.initialize_state(manager, 3)
    out = manager.matvec(gates.diffusion(manager, 3), state, 3,
                         orc.phase_vector)
    assert abs(abs(manager.inner_product(out, state, 3)) - 1) < 1e-9


@pytest.mark.parametrize("k,marked", [(4, [7]), (6, [1, 2, 3]), (8, [0, 255])])
def test_iterate_follows_closed_form(k, marked):
    m = QuiddManager()
    n, mc = 1 << k, len(marked)
    theta = math.asin(math.sqrt(mc / n))
    orc = oracle.compile_marked_set(m, k, marked)
    diffusion = gates.diffusion(m, k)
    state = grover.initialize_state(m, k)
    unmarked = next(i for i in range(n) if i not in set(marked))
    for t in range(1, 7):
        state = m.matvec(diffusion, state, k, orc.phase_vector)
        up = math.sin((2 * t + 1) * theta) / math.sqrt(mc)
        down = math.cos((2 * t + 1) * theta) / math.sqrt(n - mc)
        assert abs(m.entry_at(state, marked[0], k) - up) < 1e-9
        assert abs(m.entry_at(state, unmarked, k) - down) < 1e-9


# ---------------------------------------------------------------------------
# full runs


def test_run_n4_returns_marked_index_across_seeds():
    for seed in range(8):
        m, orc, rec = single_marked_run(2, 3, seed=seed, shots=5)
        assert rec.iterations == 1
        assert rec.measurements == (3,) * 5


def test_run_k10_success_probability():
    _, _, rec = single_marked_run(10, 77)
    assert rec.iterations == 25
    assert abs(rec.trace[-1].success_prob - 0.9995) <= 0.0005


def test_run_with_zero_iterations_gives_uniform_odds():
    m, orc, rec = single_marked_run(4, 11, iterations=0)
    assert rec.trace[-1].success_prob == pytest.approx(1 / 16, abs=1e-12)


def test_queries_equal_iterations():
    for iterations in (0, 1, 7):
        _, _, rec = single_marked_run(5, 3, iterations=iterations)
        assert rec.queries == iterations == rec.iterations


def test_run_flags_no_solution(manager):
    orc = oracle.compile_marked_set(manager, 3, [])
    rec = grover.run(manager, orc, GroverParams(k=3))
    assert rec.no_solution
    assert rec.iterations == 0
    norm = manager.inner_product(rec.final_state, rec.final_state, 3).real
    assert abs(norm - 1) < 1e-9


def test_run_rejects_mismatched_k(manager):
    orc = oracle.compile_marked_set(manager, 3, [1])
    with pytest.raises(ValueError):
        grover.run(manager, orc, GroverParams(k=4))


def test_run_rejects_an_oracle_its_phase_vector_contradicts(manager):
    # A count the diagram does not hold would size the run wrongly (one
    # iteration instead of three here); a non +/-1 terminal is no oracle.
    good = oracle.compile_marked_set(manager, 4, [3])
    miscounted = oracle.Oracle(good.phase_vector, 4, 5, good.provenance)
    with pytest.raises(oracle.OracleError, match="claims 5 .* marks 1"):
        grover.run(manager, miscounted, GroverParams(k=4))
    phases = from_dense(manager, [2, 3, -1, 1], vector_space(2))
    not_phases = oracle.Oracle(phases, 2, 1,
                               oracle.Predicate(2, marked=frozenset({2})))
    with pytest.raises(oracle.OracleError, match="not \\+/-1"):
        grover.run(manager, not_phases, GroverParams(k=2))


def test_run_rejects_an_oracle_deeper_than_its_k(manager):
    good = oracle.compile_marked_set(manager, 4, [5])
    deep = oracle.Oracle(good.phase_vector, 3, 1, good.provenance)
    with pytest.raises(SpaceMismatchError):
        grover.run(manager, deep, GroverParams(k=3))


def test_run_trace_matches_dense_reference():
    for k, marked in ((3, [5]), (5, [7, 8]), (6, [0, 9, 33, 60])):
        m = QuiddManager()
        orc = oracle.compile_marked_set(m, k, marked)
        rec = grover.run(m, orc, GroverParams(k=k))
        ref = dense.grover_trace(k, marked, rec.iterations)
        assert len(rec.trace) == rec.iterations + 1
        for t, stats in enumerate(rec.trace):
            assert abs(stats.success_prob - ref.success_probs[t]) < 1e-9
        final = to_dense(m, rec.final_state, vector_space(k))
        assert np.max(np.abs(final - ref.states[-1])) < 1e-9


def test_norm_conserved_every_iteration_large_k():
    for k in (18, 24, 28):
        m = QuiddManager()
        orc = oracle.compile_marked_set(m, k, [5])
        rec = grover.run(m, orc, GroverParams(k=k, iterations=4, shots=0))
        for stats in rec.trace:
            assert abs(stats.norm_sq - 1) < 1e-9


def test_full_length_run_keeps_norm_and_closed_form_large_k():
    # Every iteration of a full k=26 run (6,433 of them): rounding that
    # builds up over the run would show here long before it changes a
    # measurement.
    k = 26
    _, _, rec = single_marked_run(k, (1 << k) - 3, shots=0)
    assert rec.iterations == 6433
    for stats in rec.trace:
        assert abs(stats.norm_sq - 1) <= 1e-9
        ideal = grover.ideal_success_probability(stats.t, 1 << k, 1)
        assert abs(stats.success_prob - ideal) <= 1e-9


def test_state_holds_two_amplitude_classes():
    # Marked entries share one value, unmarked another: at most 2 distinct
    # terminals (3 transiently when one class is empty or zero appears).
    m, orc, rec = single_marked_run(8, 100)
    assert m.count_nodes(rec.final_state).terminal <= 3
    assert m.count_nodes(rec.final_state).internal <= 3 * 8


def test_run_reproducible_across_managers():
    _, _, a = single_marked_run(6, 9, seed=42, shots=3)
    _, _, b = single_marked_run(6, 9, seed=42, shots=3)
    assert a.comparable() == b.comparable()


def test_peak_live_nodes_is_trace_maximum():
    _, _, rec = single_marked_run(9, 17)
    assert rec.peak_live_internal_nodes == max(
        s.live_internal_nodes for s in rec.trace)


# ---------------------------------------------------------------------------
# dead-node collection inside a run


class NeverFreeManager(QuiddManager):
    """A manager that never frees a node: collect() hands back its inputs."""

    def collect(self, floor, roots):
        return roots


def _spread_marked(k, count):
    return [(i * 2654435761 + 7 * k) % (1 << k) for i in range(count)]


@pytest.mark.parametrize("marked", [1, 3, 17])
@pytest.mark.parametrize("k", [14, 15, 16, 17, 18])
def test_collection_leaves_runs_bit_identical(k, marked):
    records = {}
    for cls in (QuiddManager, NeverFreeManager):
        m = cls()
        orc = oracle.compile_marked_set(m, k, _spread_marked(k, marked))
        ideal = grover.optimal_iterations(1 << k, orc.marked_count)
        records[cls] = [
            grover.run(m, orc, GroverParams(k=k, iterations=its, seed=rep,
                                            shots=4)).comparable()
            for its in (ideal, 3 * ideal) for rep in range(2)]
    assert records[QuiddManager] == records[NeverFreeManager]


def test_frequent_collection_keeps_refs_and_results(monkeypatch):
    k = 12
    plain = NeverFreeManager()
    want = grover.run(plain, oracle.compile_marked_set(plain, k, [5, 900]),
                      GroverParams(k=k, shots=8))
    monkeypatch.setattr(grover, "COLLECT_EVERY", 64)
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, [5, 900])
    before = m.dump(orc.phase_vector)
    rec = grover.run(m, orc, GroverParams(k=k, shots=8))
    assert rec.comparable() == want.comparable()
    assert m.nodes_created == plain.nodes_created
    assert m.size < plain.size
    # Refs issued before the run are untouched; the final state is valid.
    assert m.dump(orc.phase_vector) == before
    assert np.array_equal(to_dense(m, rec.final_state, vector_space(k)),
                          to_dense(plain, want.final_state, vector_space(k)))
    again = grover.run(m, orc, GroverParams(k=k, shots=8))
    assert again.comparable() == want.comparable()


@pytest.mark.parametrize("marked", [[5], [5, 900, 2000]])
def test_run_ends_with_the_same_store_at_any_collection_setting(
        monkeypatch, marked):
    # A run ends with a collection, so how often it collected on the way
    # leaves no trace in the manager.
    k = 12
    stores = []
    for every in (4096, 64):
        monkeypatch.setattr(grover, "COLLECT_EVERY", every)
        m = QuiddManager()
        grover.run(m, oracle.compile_marked_set(m, k, marked),
                   GroverParams(k=k, shots=2))
        stores.append((m.nodes_created, m.size))
    assert stores[0] == stores[1]


def full_walk_live_counts(k, marked, iterations):
    """Live counts by definition: one walk over the state and the run's
    three fixed diagrams together, in a manager that never collects."""
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, marked)
    diffusion = gates.diffusion(m, k)
    indicator = oracle.indicator_vector(m, orc)
    state = grover.initialize_state(m, k)
    counts = []
    for t in range(iterations + 1):
        if t:
            state = m.matvec(diffusion, state, k, orc.phase_vector)
        counts.append(m.count_nodes(state, orc.phase_vector, indicator,
                                    diffusion).internal)
    return counts


@pytest.mark.parametrize("marked", [1, 3])
@pytest.mark.parametrize("k", [14, 15, 16])
def test_live_count_equals_full_walk_under_collection(monkeypatch, k, marked):
    monkeypatch.setattr(grover, "COLLECT_EVERY", 64)
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, _spread_marked(k, marked))
    rec = grover.run(m, orc, GroverParams(k=k, shots=0))
    assert m.size < m.nodes_created        # the run collected
    assert [s.live_internal_nodes for s in rec.trace] == full_walk_live_counts(
        k, _spread_marked(k, marked), rec.iterations)


def test_live_count_when_the_state_is_the_indicator():
    # At k=2 one iteration maps the uniform state onto the marked basis
    # state, which is the indicator diagram itself: the union adds nothing.
    m, orc, rec = single_marked_run(2, 2, iterations=1)
    assert rec.final_state == oracle.indicator_vector(m, orc)
    _, _, rec = single_marked_run(2, 2, iterations=3)
    assert [s.live_internal_nodes for s in rec.trace] == [10, 10, 12, 10]


def test_collection_bounds_run_memory():
    k = 20
    peaks = {}
    for cls in (QuiddManager, NeverFreeManager):
        m = cls()
        orc = oracle.compile_marked_set(m, k, [(1 << k) - 3])
        tracemalloc.start()
        try:
            grover.run(m, orc, GroverParams(k=k, shots=0))
            peaks[cls] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[QuiddManager] * 3 <= peaks[NeverFreeManager], peaks


class TableWatchManager(QuiddManager):
    """Counts the entries each iteration enters into the matvec,
    vector-sum and inner-product tables (an iteration starts with its
    matvec), and keeps what those tables hold when collect() is called."""

    def __init__(self):
        super().__init__()
        self.entered = self.most_entered = 0
        self.held = None

    def _remember(self, cache, key, r):
        if cache is self._mv_memo or cache is self._vs_memo \
                or cache is self._ip_memo:
            self.entered += 1
        return super()._remember(cache, key, r)

    def matvec(self, gate, vec, k, phase=None):
        self.most_entered = max(self.most_entered, self.entered)
        self.entered = 0
        return super().matvec(gate, vec, k, phase)

    def collect(self, floor, roots):
        self.most_entered = max(self.most_entered, self.entered)
        self.held = sum(map(len, (self._mv_memo, self._vs_memo,
                                  self._ip_memo)))
        return super().collect(floor, roots)


def test_per_call_tables_hold_one_iteration(monkeypatch):
    # Without a collection between iterations, the tables still hold no
    # more than one iteration's entries when the run ends: matvec and
    # inner_product start from empty tables.
    monkeypatch.setattr(grover, "COLLECT_EVERY", 10**9)
    k = 14
    m = TableWatchManager()
    orc = oracle.compile_marked_set(m, k, [(1 << k) - 3])
    rec = grover.run(m, orc, GroverParams(k=k, shots=0))
    assert rec.iterations > 50
    assert 0 < m.held <= m.most_entered, (m.held, m.most_entered)


def test_run_interns_few_terminals_per_iteration(monkeypatch):
    # Collecting every 64 allocations leaves the store holding the run's
    # live diagrams plus the terminals still in the terminal table: the
    # swept ones are freed, so the store does not grow with the
    # iteration count.  No sweep visits the 2k or so partial products of
    # the initial state's construction.
    monkeypatch.setattr(grover, "COLLECT_EVERY", 64)
    k = 20
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, [(1 << k) - 3])
    fixed = m.size
    rec = grover.run(m, orc, GroverParams(k=k, shots=0))
    fixed += rec.peak_live_internal_nodes + grover.COLLECT_EVERY
    assert m.size <= fixed + 2 * k, (m.size, rec.iterations)


def test_terminal_table_does_not_grow_with_the_iteration_count():
    k = 14
    sizes = []
    for mult in (1, 4):
        m = QuiddManager()
        orc = oracle.compile_marked_set(m, k, [(1 << k) - 3])
        its = mult * grover.optimal_iterations(1 << k, 1)
        grover.run(m, orc, GroverParams(k=k, iterations=its, shots=0))
        sizes.append(len(m._terminals))
    assert sizes[0] == sizes[1], sizes


@pytest.mark.parametrize("every", [4096, 64])
def test_run_leaves_the_terminal_table_and_the_store_in_agreement(
        monkeypatch, every):
    monkeypatch.setattr(grover, "COLLECT_EVERY", every)
    k = 12
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, [5, 900, 2000])
    before = m.size
    grover.run(m, orc, GroverParams(
        k=k, iterations=3 * grover.optimal_iterations(1 << k, 3), shots=2))
    table = m._terminals
    for key, ref in table.items():
        assert m.is_terminal(ref) and quidd._grid_key(m.value(ref)) == key
    stored = {n for n in range(before, m.size) if m.is_terminal(n)}
    assert stored <= set(table.values())


def test_run_never_sweeps_a_terminal_made_before_it():
    # The initial state built before the run is a terminal below the
    # run's floor; after the run its cell still maps to that ref.
    k = 12
    m = QuiddManager()
    orc = oracle.compile_marked_set(m, k, [5])
    state = grover.initialize_state(m, k)
    grover.run(m, orc, GroverParams(k=k, shots=1))
    assert m.terminal(2 ** (-k / 2)) == state


class SpanWatchManager(NeverFreeManager):
    """Keeps each state the trace walks, with the span the walk enters."""

    def __init__(self):
        super().__init__()
        self.spans = []

    def survey(self, root, exclude=frozenset()):
        got = super().survey(root, exclude)
        if exclude:
            self.spans.append((root, got[2]))
        return got


@pytest.mark.parametrize("k, marked, iterations", [
    (2, [2], 3),            # the state becomes the indicator itself
    (10, [3, 700], None),
    (12, [5, 900, 2000], 60),
])
def test_trace_walk_enters_each_state_exact_span(k, marked, iterations):
    m = SpanWatchManager()
    orc = oracle.compile_marked_set(m, k, marked)
    rec = grover.run(m, orc, GroverParams(k=k, iterations=iterations,
                                          shots=0))
    assert len(m.spans) == rec.iterations + 1      # one walk per state
    for state, span in m.spans:
        used = [m.var(n) for n in m.reachable(state) if not m.is_terminal(n)]
        assert span == (max(used, default=-1), any(v & 1 for v in used))


# ---------------------------------------------------------------------------
# measurement


def test_measure_basis_state(manager):
    v = from_dense(manager, dense.basis_state(3, 5), vector_space(3))
    rng = random.Random(0)
    assert all(grover.measure(manager, v, 3, rng) == 5 for _ in range(20))


def test_measure_uniform_chi_square(manager):
    v = grover.initialize_state(manager, 4)
    rng = random.Random(123)
    counts = [0] * 16
    for _ in range(16000):
        counts[grover.measure(manager, v, 4, rng)] += 1
    for c in counts:
        assert abs(c - 1000) <= 150
    stat = sum((c - 1000) ** 2 / 1000 for c in counts)
    assert stat < 37.70      # chi-square critical value, 15 dof, p = 0.001


def test_measure_post_run_certainty():
    m, orc, rec = single_marked_run(2, 1)
    rng = random.Random(7)
    for _ in range(10):
        assert grover.measure(m, rec.final_state, 2, rng) == 1


def test_measure_does_not_mutate(manager):
    v = grover.initialize_state(manager, 3)
    rng = random.Random(5)
    grover.measure(manager, v, 3, rng)
    assert v == grover.initialize_state(manager, 3)


def test_sampler_rejects_a_state_deeper_than_k(manager):
    v = from_dense(manager, np.arange(16.0) + 1, vector_space(4))
    with pytest.raises(SpaceMismatchError):
        grover.sampler(manager, v, 3)


def test_measure_rejects_zero_state(manager):
    z = manager.terminal(0)
    with pytest.raises(ValueError):
        grover.measure(manager, z, 3, random.Random(0))
    with pytest.raises(ValueError):
        grover.sampler(manager, z, 3)


def reference_measure(m, state, k, rng):
    """Per-call measurement that rebuilds its subtree masses every time;
    the sampler must match its draws and its use of ``rng`` exactly."""
    mass = {}

    def qubit_of(n):
        return k if m.is_terminal(n) else m.var(n) // 2

    def weight(n):
        w = mass.get(n)
        if w is not None:
            return w
        if m.is_terminal(n):
            w = abs(m.value(n)) ** 2
        else:
            q = m.var(n) // 2
            w = sum(weight(child) * (1 << (qubit_of(child) - q - 1))
                    for child in (m.low(n), m.high(n)))
        mass[n] = w
        return w

    if weight(state) <= 0.0:
        raise ValueError("cannot measure a zero state")
    index = 0
    cur = state
    for q in range(k):
        if m.is_terminal(cur) or m.var(cur) > 2 * q:
            bit = rng.getrandbits(1)
        else:
            lo, hi = m.low(cur), m.high(cur)
            wl = weight(lo) * (1 << (qubit_of(lo) - q - 1))
            wh = weight(hi) * (1 << (qubit_of(hi) - q - 1))
            bit = 0 if rng.random() * (wl + wh) < wl else 1
            cur = hi if bit else lo
        index = (index << 1) | bit
    return index


# Few distinct amplitudes, so equal halves reduce away and skip levels.
AMPLITUDES = st.sampled_from([0, 0.5, -0.25, 0.3j, 0.6 - 0.2j, 1e-9])


@st.composite
def small_states(draw):
    k = draw(st.integers(1, 5))
    entries = draw(st.lists(AMPLITUDES, min_size=1 << k, max_size=1 << k)
                   .filter(lambda xs: any(xs)))
    return k, entries


@given(small_states(), st.integers(0, 2 ** 32))
@example((3, [0.5] * 8), 7)                          # terminal root
@example((3, [0, 0.5, 0.3j, 0.3j] * 2), 11)          # skipped top qubit
@example((4, [0.5, 0.5, -0.25, -0.25] * 4), 3)       # skipped last qubit
def test_sampler_draws_equal_per_call_measure(state, seed):
    k, entries = state
    m = QuiddManager()
    v = from_dense(m, np.array(entries, dtype=complex), vector_space(k))
    draw = grover.sampler(m, v, k)
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    got = [draw(rng_a) for _ in range(25)]
    want = [reference_measure(m, v, k, rng_b) for _ in range(25)]
    assert got == want
    assert rng_a.getstate() == rng_b.getstate()
    assert grover.measure(m, v, k, random.Random(seed)) == want[0]


@pytest.mark.parametrize("k,marked", [(2, [1]), (5, [3, 17, 30]),
                                      (6, [0, 9, 33, 60])])
def test_run_shots_equal_per_call_measure(k, marked):
    for seed in range(3):
        m = QuiddManager()
        orc = oracle.compile_marked_set(m, k, marked)
        rec = grover.run(m, orc, GroverParams(k=k, seed=seed, shots=40))
        rng = random.Random(seed)
        assert rec.measurements == tuple(
            reference_measure(m, rec.final_state, k, rng) for _ in range(40))


# ---------------------------------------------------------------------------
# trace reports


def test_trace_report_n4_overrun():
    _, _, rec = single_marked_run(2, 3, iterations=3)
    probs = [s.success_prob for s in rec.trace]
    assert probs[1] == pytest.approx(1.0, abs=1e-12)
    assert probs[2] < probs[1]
    report = amplitude_trace_report(rec)
    assert report.first_peak == 1
    assert report.declines_after_first_peak


def test_trace_report_three_times_optimal():
    k = 6
    r_opt = grover.optimal_iterations(64, 1)
    _, _, rec = single_marked_run(k, 11, iterations=3 * r_opt)
    report = amplitude_trace_report(rec)
    assert len(report.local_maxima) >= 2
    assert report.declines_after_first_peak
    assert max(report.success_probs) > 0.99


def test_trace_report_all_marked(manager):
    orc = oracle.compile_marked_set(manager, 2, range(4))
    rec = grover.run(manager, orc, GroverParams(k=2, iterations=4))
    assert all(s.success_prob == pytest.approx(1.0, abs=1e-12)
               for s in rec.trace)
