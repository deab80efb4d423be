"""Grover search on diagram state vectors, with per-iteration tracing on demand.

One iteration, an oracle phase flip and then the inversion about the
mean, is one diffusion matvec that never builds the flipped state.  The
engine counts exactly one oracle query per iteration, records amplitudes,
success probability, norm and live node footprint after every iteration,
or, for a caller that reads no trace, after the last one only, and
samples the final state without mutating it: :func:`sampler` sums its
subtree masses once, then draws any number of shots.

Recording the trace allocates no node, and the :class:`Trace` keeps no
Python object per iteration: its statistics sit in flat columns.  One
inner product of the state with itself, masked by the marked-set
indicator, gives both the success probability and the norm.  One walk
of the state's nodes, made after every iteration with or without the
trace, gives the live count, the state's span for the space checks and
the terminals the run keeps when it sweeps the terminal table after the
iteration; the nodes it shares with the run's fixed diagrams (oracle
phase, indicator, diffusion), whose own nodes are counted once per run,
are walked through but not counted again."""

from __future__ import annotations

import math
import random
import time
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields

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
    return max(sorted({max(base - 1, 0), base, base + 1}),
               key=lambda r: ideal_success_probability(r, n_items, marked_count))


@dataclass(frozen=True)
class GroverParams:
    """Run parameters.  ``iterations`` of None means the ideal count for
    the oracle's marked count; a run sized for another count M passes
    ``iterations=optimal_iterations(2**k, M)``.  ``k``, ``iterations``,
    ``seed`` and ``shots`` must be ints (not bools), or
    :class:`TypeError` is raised when the parameters are made."""

    k: int
    iterations: int | None = None
    seed: int = 0
    shots: int = 1

    def __post_init__(self):
        for name in ("k", "iterations", "seed", "shots"):
            value = getattr(self, name)
            if value is None and name == "iterations":
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
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


class Trace(Sequence):
    """The per-iteration statistics of one run, stored as columns.

    Entry t is the :class:`IterationStats` after iteration t, built when
    it is read, so ``trace[-1]`` costs O(1) and the trace holds no Python
    object per iteration: success probability, squared norm and the real
    and imaginary parts of both amplitudes are ``array('d')`` columns,
    which keep every float bit for bit, and the live counts an
    ``array('q')``, 56 bytes per iteration in all.  When the oracle marks
    no item, or every item, that amplitude has no columns and reads
    ``None`` in every entry.

    A trace is read-only to its users.  A slice returns a tuple;
    iteration, ``len``, equality with another trace or with a tuple of
    the same entries, the hash and the repr are those of that tuple.
    """

    __slots__ = ("_marked", "_unmarked", "_success_prob", "_norm_sq",
                 "_live")

    def __init__(self, has_marked: bool, has_unmarked: bool):
        self._marked = (array("d"), array("d")) if has_marked else None
        self._unmarked = (array("d"), array("d")) if has_unmarked else None
        self._success_prob = array("d")
        self._norm_sq = array("d")
        self._live = array("q")

    def _append(self, marked_amp: complex | None,
                unmarked_amp: complex | None, success_prob: float,
                norm_sq: float, live_internal_nodes: int) -> None:
        for cols, z in ((self._marked, marked_amp),
                        (self._unmarked, unmarked_amp)):
            if cols is not None:
                cols[0].append(z.real)
                cols[1].append(z.imag)
        self._success_prob.append(success_prob)
        self._norm_sq.append(norm_sq)
        self._live.append(live_internal_nodes)

    def _entry(self, t: int) -> IterationStats:
        marked, unmarked = self._marked, self._unmarked
        return IterationStats(
            t,
            None if marked is None else complex(marked[0][t], marked[1][t]),
            None if unmarked is None
            else complex(unmarked[0][t], unmarked[1][t]),
            self._success_prob[t], self._norm_sq[t], self._live[t])

    def __len__(self) -> int:
        return len(self._success_prob)

    def __getitem__(self, i):
        t = range(len(self))[i]
        if isinstance(i, slice):
            return tuple(map(self._entry, t))
        return self._entry(t)

    def __iter__(self):
        return map(self._entry, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (Trace, tuple)):
            return NotImplemented
        return (len(self) == len(other)
                and all(a == b for a, b in zip(self, other)))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class GroverRun:
    """Complete record of one run.  Everything except the wall-clock
    fields is a pure function of (oracle, params) and whether the run
    kept its trace: a run without it holds only the trace's last entry,
    as a one-element tuple.  Equality and the hash leave out the final
    state's ref and the wall-clock times, so two runs with the same
    results compare and hash equal."""

    params: GroverParams
    k: int
    marked_count: int
    iterations: int
    queries: int
    no_solution: bool
    trace: Trace | tuple[IterationStats]
    measurements: tuple[int, ...]
    peak_live_internal_nodes: int
    final_state: int = field(compare=False)
    loop_ns: int = field(compare=False)
    wall_ns: int = field(compare=False)

    def comparable(self) -> dict:
        """All fields that must be bit-identical across reruns: those
        equality compares (every field but the final state's ref and the
        wall-clock times), with the trace as a tuple of its entries."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.compare}
        out["trace"] = tuple(self.trace)
        return out


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


def _stats(m: QuiddManager, state: int, indicator: int,
           marked_idx: int | None, unmarked_idx: int | None,
           k: int) -> tuple[complex | None, complex | None, float, float]:
    """The statistics of ``state`` beyond its live count: the marked and
    unmarked amplitudes, the success probability and the squared norm.
    Allocates no node.

    One inner product of the state with itself, masked by the 0/1
    ``indicator``, gives the success probability (the masked sum) and
    the squared norm (the full sum), so the masked state is never built.
    """
    marked_amp = (m.entry_at(state, marked_idx, k)
                  if marked_idx is not None else None)
    unmarked_amp = (m.entry_at(state, unmarked_idx, k)
                    if unmarked_idx is not None else None)
    p, norm_sq = m.inner_product(state, state, k, indicator)
    return marked_amp, unmarked_amp, min(max(p.real, 0.0), 1.0), norm_sq.real


def run(m: QuiddManager, oracle: Oracle, params: GroverParams, *,
        trace: bool = True) -> GroverRun:
    """Execute a full Grover run and return its record.

    With zero marked items the run still completes (the state stays
    uniform) and is flagged ``no_solution``; the default iteration count
    is then 0.

    The oracle's phase vector is recounted first: a terminal other than
    +/-1, or a count that differs from ``oracle.marked_count``, raises
    :class:`OracleError` before any iteration.

    With ``trace`` (the default) the record's trace holds an entry for
    the initial state and for every iteration.  Without it the run
    computes the statistics of the final state only, and the trace is a
    one-element tuple holding the entry for iteration ``iterations``,
    equal to the last entry of the full trace.  Every state is still
    walked once (:meth:`QuiddManager.survey`): the walk gives the live
    count, whose maximum is ``peak_live_internal_nodes`` either way, and
    the terminals the sweep keeps.  Everything else in the record, the
    final state and what the run leaves in the manager are the same
    with and without the trace; ``loop_ns`` covers the final state's
    statistics in both.

    The run's floor is the store size once it has built its fixed
    diagrams (diffusion and indicator).  After every iteration's walk
    the run sweeps the terminal table (:meth:`QuiddManager.sweep`): of
    the terminals above the floor, it drops those the new state does not
    reach.  Once ``COLLECT_EVERY`` nodes have been created since the
    last collection, and once more after the last iteration, it frees
    the nodes above the floor that it no longer needs
    (:meth:`QuiddManager.collect`), swept terminals included.
    Sweeps do not depend on the collection setting, so neither do the
    results or what the run leaves in the manager: its fixed diagrams,
    the two intermediate diagrams :func:`indicator_vector` builds on the
    way to the indicator and the final state; the diffusion's row sums
    are kept as numbers, so they hold no node.
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
    entries = Trace(marked_idx is not None, unmarked_idx is not None)
    stats = (indicator, marked_idx, unmarked_idx, k)
    # The walk through the fixed diagrams counts the state's own nodes,
    # lists the terminals the sweep keeps and enters the state's span,
    # so the space checks that follow walk nothing.
    internal, _, _ = m.survey(state, fixed)
    live = peak = fixed_internal + internal
    if trace:
        entries._append(*_stats(m, state, *stats), live)
    loop_start = time.perf_counter_ns()
    for _ in range(iterations):
        # One iteration: the diffusion times the oracle's phase product,
        # in one matvec that never builds the product.
        state = m.matvec(diffusion_ref, state, k, oracle.phase_vector)
        internal, current, _ = m.survey(state, fixed)
        live = fixed_internal + internal
        if live > peak:
            peak = live
        if trace:
            entries._append(*_stats(m, state, *stats), live)
        m.sweep(floor, current)
        if m.nodes_created - collected_at >= COLLECT_EVERY:
            (state,) = m.collect(floor, (state,))
            collected_at = m.nodes_created
    if not trace:
        entries = (IterationStats(iterations, *_stats(m, state, *stats),
                                  live),)
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
        queries=iterations,
        no_solution=no_solution,
        trace=entries,
        measurements=measurements,
        peak_live_internal_nodes=peak,
        final_state=state,
        loop_ns=loop_ns,
        wall_ns=time.perf_counter_ns() - t_start,
    )
