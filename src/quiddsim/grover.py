"""Grover search on diagram state vectors, with full per-iteration tracing.

One iteration, an oracle phase flip and then the inversion about the
mean, is one diffusion matvec that never builds the flipped state.  The
engine counts exactly one oracle query per iteration, records amplitudes,
success probability, norm and live node footprint after every iteration,
and samples the final state without mutating it: :func:`sampler` sums its
subtree masses once, then draws any number of shots.

Recording the trace allocates no node.  One inner product of the state
with itself, masked by the marked-set indicator, gives both the success
probability and the norm.  One walk of the state's nodes beyond the
run's fixed diagrams (oracle phase, indicator, diffusion), whose own
nodes are counted once per run, gives the live count, the state's span
for the space checks and the terminals the run keeps when it sweeps
the terminal table after the iteration.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, fields

from . import gates
# perfbench/workloads.py patches grover.apply_oracle, so the name stays.
from .oracle import (Oracle, OracleError, _count_marked, any_marked_index,
                     any_unmarked_index, apply_oracle, indicator_vector)
from .quidd import QuiddManager

# Nodes a run allocates between two collections of its dead nodes.
COLLECT_EVERY = 4096


class NoSolutionError(ValueError):
    """Iteration-count request for a predicate with no solutions."""


def ideal_success_probability(t: int, n_items: int, marked_count: int) -> float:
    """sin^2((2t+1) * asin(sqrt(M/N))): success probability after t iterations."""
    theta = math.asin(math.sqrt(marked_count / n_items))
    return math.sin((2 * t + 1) * theta) ** 2


def optimal_iterations(n_items: int, marked_count: int) -> int:
    """Iteration count maximizing the success probability.

    floor(pi / (4 * asin(sqrt(M/N)))), nudged to a neighbouring integer
    when that strictly improves the ideal success probability.  0 when
    every item is marked; raises when none is.
    """
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    if marked_count < 0 or marked_count > n_items:
        raise ValueError(f"marked count {marked_count} out of range 0..{n_items}")
    if marked_count == 0:
        raise NoSolutionError("no marked items: iteration count is undefined")
    if marked_count == n_items:
        return 0
    theta = math.asin(math.sqrt(marked_count / n_items))
    base = math.floor(math.pi / (4.0 * theta))
    best = None
    best_p = -1.0
    for r in sorted({max(base - 1, 0), base, base + 1}):
        p = math.sin((2 * r + 1) * theta) ** 2
        if p > best_p:
            best, best_p = r, p
    return best


@dataclass(frozen=True)
class GroverParams:
    """Run parameters.  ``iterations`` of None means the ideal count for
    the oracle's marked count; a run sized for another count M passes
    ``iterations=optimal_iterations(2**k, M)``."""

    k: int
    iterations: int | None = None
    seed: int = 0
    shots: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.iterations is not None and self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")


@dataclass(frozen=True)
class IterationStats:
    """State snapshot after iteration t (t = 0 is the initial state)."""

    t: int
    marked_amp: complex | None
    unmarked_amp: complex | None
    success_prob: float
    norm_sq: float
    live_internal_nodes: int


@dataclass(frozen=True)
class GroverRun:
    """Complete record of one run.  Everything except the wall-clock
    fields is a pure function of (oracle, params)."""

    params: GroverParams
    k: int
    marked_count: int
    iterations: int
    queries: int
    no_solution: bool
    trace: tuple[IterationStats, ...]
    measurements: tuple[int, ...]
    peak_live_internal_nodes: int
    final_state: int
    loop_ns: int
    wall_ns: int

    def comparable(self) -> dict:
        """All fields that must be bit-identical across reruns: every
        field but the final state's ref and the wall-clock times."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("final_state", "loop_ns", "wall_ns")}


def initialize_state(m: QuiddManager, k: int) -> int:
    """H on every qubit of |0...0>: the uniform superposition.

    The result is a single terminal 2^(-k/2) regardless of k.
    """
    zero = m.terminal(0)
    cur = m.terminal(1)
    for i in range(k - 1, -1, -1):
        cur = m.node(2 * i, cur, zero)
    return m.matvec(gates.hadamard_all(m, k), cur, k)


def sampler(m: QuiddManager, state: int,
            k: int) -> Callable[[random.Random], int]:
    """A ``draw(rng)`` sampling one basis index with probability |amplitude|^2.

    Subtree masses are summed once, here, and every branching node keeps
    its (low mass, total mass) split, so each draw is a single top-down
    pass over the diagram.  A draw takes ``rng.getrandbits(1)`` for each
    skipped variable (an unbiased bit) and one ``rng.random()`` for each
    branching node.  The state is not modified.  A state that does not
    fit k qubits raises :class:`SpaceMismatchError`.
    """
    mass = m.subtree_sums(state, k, lambda v: abs(v) ** 2)
    if mass[state] <= 0.0:
        raise ValueError("cannot measure a zero state")
    # Branching node -> (qubit, low, high, low mass, total mass), masses
    # taken over the block that starts at the node's own qubit.
    split = {}
    for n, total in mass.items():
        if not m.is_terminal(n):
            q = m.var(n) // 2
            lo, hi = m.low(n), m.high(n)
            q_lo = k if m.is_terminal(lo) else m.var(lo) // 2
            split[n] = (q, lo, hi, mass[lo] * (1 << (q_lo - q - 1)), total)

    def draw(rng: random.Random) -> int:
        index = 0
        cur = state
        for q in range(k):
            node = split.get(cur)
            if node is None or node[0] > q:
                bit = rng.getrandbits(1)
            else:
                _, lo, hi, wl, total = node
                bit = 0 if rng.random() * total < wl else 1
                cur = hi if bit else lo
            index = (index << 1) | bit
        return index

    return draw


def measure(m: QuiddManager, state: int, k: int, rng: random.Random) -> int:
    """Sample one basis index with probability |amplitude|^2: one draw of
    :func:`sampler`.  Raises ``ValueError`` on a zero state."""
    return sampler(m, state, k)(rng)


def _stats(m: QuiddManager, t: int, state: int, indicator: int,
           marked_idx: int | None, unmarked_idx: int | None,
           fixed: set, fixed_internal: int,
           k: int) -> tuple[IterationStats, list[int]]:
    """The trace entry for ``state`` and the state's terminals beyond the
    run's fixed diagrams; allocates no node.

    The state is walked once (:meth:`QuiddManager.survey`), and only
    beyond the fixed diagrams (oracle phase, indicator, diffusion):
    ``fixed`` holds their nodes, ``fixed_internal`` how many are
    internal, and the live count is the union of the state with them.
    The walk also enters the state's span, so the space checks of the
    calls that follow, and of the next iteration's matvec, walk nothing.
    One inner product of the state with itself, masked by the 0/1
    ``indicator``, gives the success probability (the masked sum) and
    the squared norm (the full sum), so the masked state is never built.
    """
    internal, terminals, _ = m.survey(state, fixed)
    marked_amp = (m.entry_at(state, marked_idx, k)
                  if marked_idx is not None else None)
    unmarked_amp = (m.entry_at(state, unmarked_idx, k)
                    if unmarked_idx is not None else None)
    p, norm_sq = m.inner_product(state, state, k, indicator)
    p = min(max(p.real, 0.0), 1.0)
    return IterationStats(t, marked_amp, unmarked_amp, p, norm_sq.real,
                          fixed_internal + internal), terminals


def run(m: QuiddManager, oracle: Oracle, params: GroverParams) -> GroverRun:
    """Execute a full Grover run and return its record.

    With zero marked items the run still completes (the state stays
    uniform) and is flagged ``no_solution``; the default iteration count
    is then 0.

    The oracle's phase vector is recounted first: a terminal other than
    +/-1, or a count that differs from ``oracle.marked_count``, raises
    :class:`OracleError` before any iteration.

    The run's floor is the store size once it has built its fixed
    diagrams (diffusion and indicator).  After every iteration's trace
    entry the run sweeps the terminal table
    (:meth:`QuiddManager.sweep`): of the terminals above the floor that
    the iteration made or the previous state reached, it drops those the
    new state does not reach.  Once ``COLLECT_EVERY`` nodes have been
    created since the last collection, and once more after the last
    iteration, it frees the nodes above the floor that it no longer
    needs (:meth:`QuiddManager.collect`), swept terminals included.
    Sweeps do not depend on the collection setting, so neither do the
    results or what the run leaves in the manager: its fixed diagrams,
    the two intermediate diagrams :func:`indicator_vector` builds on the
    way to the indicator, the final state, the diffusion's row sums and
    the few terminals that were never swept, such as those of the
    initial state's construction.
    Every ref issued before the run stays valid, and so does the
    returned ``final_state``; any other ref the run's own calls produced
    may have been freed or renumbered.
    """
    t_start = time.perf_counter_ns()
    if params.k != oracle.k:
        raise ValueError(f"params.k={params.k} but oracle has k={oracle.k}")
    k = oracle.k
    counted = _count_marked(m, oracle.phase_vector, k)
    if counted != oracle.marked_count:
        raise OracleError(f"oracle claims {oracle.marked_count} marked "
                          f"items but its phase vector marks {counted}")
    n_items = 1 << k
    no_solution = oracle.marked_count == 0
    if params.iterations is not None:
        iterations = params.iterations
    elif no_solution:
        iterations = 0
    else:
        iterations = optimal_iterations(n_items, oracle.marked_count)

    # The fixed diagrams lie below the floor, so collections never move
    # them and their node set is taken once.
    diffusion_ref = gates.diffusion(m, k)
    indicator = indicator_vector(m, oracle)
    marked_idx = any_marked_index(m, oracle)
    unmarked_idx = any_unmarked_index(m, oracle)
    fixed = m.reachable(oracle.phase_vector, indicator, diffusion_ref)
    fixed_internal = sum(1 for n in fixed if not m.is_terminal(n))
    floor = m.size
    collected_at = m.nodes_created

    state = initialize_state(m, k)
    stats, terminals = _stats(m, 0, state, indicator, marked_idx,
                              unmarked_idx, fixed, fixed_internal, k)
    trace = [stats]
    queries = 0
    loop_start = time.perf_counter_ns()
    for t in range(1, iterations + 1):
        # One iteration: the diffusion times the oracle's phase product,
        # in one matvec that never builds the product.
        since = m.size
        state = m.matvec(diffusion_ref, state, k, oracle.phase_vector)
        queries += 1
        stats, current = _stats(m, t, state, indicator, marked_idx,
                                unmarked_idx, fixed, fixed_internal, k)
        trace.append(stats)
        m.sweep(floor, since, terminals, current)
        terminals = current
        if m.nodes_created - collected_at >= COLLECT_EVERY:
            state, *terminals = m.collect(floor, (state, *terminals))
            collected_at = m.nodes_created
    loop_ns = time.perf_counter_ns() - loop_start
    (state,) = m.collect(floor, (state,))

    measurements = ()
    if params.shots:
        draw = sampler(m, state, k)
        rng = random.Random(params.seed)
        measurements = tuple(draw(rng) for _ in range(params.shots))
    return GroverRun(
        params=params,
        k=k,
        marked_count=oracle.marked_count,
        iterations=iterations,
        queries=queries,
        no_solution=no_solution,
        trace=tuple(trace),
        measurements=measurements,
        peak_live_internal_nodes=max(s.live_internal_nodes for s in trace),
        final_state=state,
        loop_ns=loop_ns,
        wall_ns=time.perf_counter_ns() - t_start,
    )
