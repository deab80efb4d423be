"""The dense reference the package is tested against, never the reverse.

Deliberately naive: full 2^k numpy arrays, explicit matrix algebra and
exhaustive enumeration.  Size caps keep accidental 2^30 allocations from
taking the test host down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quiddsim.cnf import CnfFormula, FormulaError, evaluate_index
from quiddsim.quidd import (InvalidAmplitudeError, QuiddError,
                            SpaceMismatchError)

# Largest qubit counts a dense expansion may have: 2^20 vector entries,
# 2^24 matrix entries.
VECTOR_QUBIT_CAP = 20
MATRIX_QUBIT_CAP = 12

# Most variables enumerate_models will walk: 2^20 assignments.
ENUMERATION_VAR_CAP = 20


class SizeCapError(QuiddError):
    """Dense expansion request beyond the qubit cap."""


def _check_k(k: int, cap: int) -> None:
    if not 1 <= k <= cap:
        raise SizeCapError(f"dense arrays support 1 <= k <= {cap}, got {k}")


@dataclass(frozen=True)
class VarSpace:
    """Decision-variable layout for k qubits, either 'vector' or 'matrix'."""

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in ("vector", "matrix"):
            raise ValueError(f"unknown space kind: {self.kind!r}")
        if self.k < 1:
            raise ValueError("qubit count must be >= 1")

    @property
    def levels(self) -> int:
        """Number of decision levels in a path through a full diagram."""
        return self.k if self.kind == "vector" else 2 * self.k

    def var_at_level(self, level: int) -> int:
        # Vectors sit on the even (row) variables only.
        return 2 * level if self.kind == "vector" else level


def vector_space(k: int) -> VarSpace:
    return VarSpace("vector", k)


def matrix_space(k: int) -> VarSpace:
    return VarSpace("matrix", k)


def from_dense(m, entries, space: VarSpace) -> int:
    """Build a diagram in manager ``m`` from a dense array (vector or
    matrix), interning low halves before high halves."""
    arr = np.asarray(entries, dtype=np.complex128)
    n = 1 << space.k
    if space.kind == "vector":
        if arr.shape != (n,):
            raise SpaceMismatchError(f"expected shape ({n},), got {arr.shape}")
        flat = arr
    else:
        if arr.shape != (n, n):
            raise SpaceMismatchError(
                f"expected shape ({n}, {n}), got {arr.shape}")
        # Interleave row and column bits into the flat path order.
        axes = [ax for q in range(space.k) for ax in (q, space.k + q)]
        flat = arr.reshape([2] * (2 * space.k)).transpose(axes).reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise InvalidAmplitudeError("non-finite entries in dense input")
    return _build(m, flat, space, 0, 0, len(flat))


def _build(m, flat, space: VarSpace, level: int, lo: int, hi: int) -> int:
    if level == space.levels:
        return m.terminal(flat[lo])
    mid = (lo + hi) >> 1
    return m.node(space.var_at_level(level),
                  _build(m, flat, space, level + 1, lo, mid),
                  _build(m, flat, space, level + 1, mid, hi))


def to_dense(m, ref: int, space: VarSpace) -> np.ndarray:
    """Expand a diagram of manager ``m`` into a dense array, after the
    manager's own space check.  Guarded by size caps."""
    if space.kind == "vector":
        m._check_vector(ref, space.k)
        _check_k(space.k, VECTOR_QUBIT_CAP)
        return _expand(m, ref, 0, space, {})
    m._check_matrix(ref, space.k)
    _check_k(space.k, MATRIX_QUBIT_CAP)
    flat = _expand(m, ref, 0, space, {})
    k = space.k
    axes = [2 * q for q in range(k)] + [2 * q + 1 for q in range(k)]
    return flat.reshape([2] * (2 * k)).transpose(axes).reshape(1 << k, 1 << k)


def _expand(m, n: int, level: int, space: VarSpace, memo: dict) -> np.ndarray:
    key = (n, level)
    out = memo.get(key)
    if out is not None:
        return out
    if m.is_terminal(n):
        out = np.full(1 << (space.levels - level), m.value(n),
                      dtype=np.complex128)
    elif m.var(n) > space.var_at_level(level):
        half = _expand(m, n, level + 1, space, memo)
        out = np.concatenate([half, half])
    else:
        out = np.concatenate([_expand(m, m.low(n), level + 1, space, memo),
                              _expand(m, m.high(n), level + 1, space, memo)])
    memo[key] = out
    return out


def uniform_state(k: int) -> np.ndarray:
    _check_k(k, VECTOR_QUBIT_CAP)
    n = 1 << k
    return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)


def basis_state(k: int, index: int) -> np.ndarray:
    _check_k(k, VECTOR_QUBIT_CAP)
    n = 1 << k
    if not 0 <= index < n:
        raise IndexError(f"basis index {index} out of range for {k} qubits")
    v = np.zeros(n, dtype=np.complex128)
    v[index] = 1.0
    return v


def hadamard_matrix(k: int) -> np.ndarray:
    """H^(x)k; entry (x, y) is (-1)^(x.y) / sqrt(2^k)."""
    _check_k(k, MATRIX_QUBIT_CAP)
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    g = h1
    for _ in range(k - 1):
        g = np.kron(g, h1)
    return g


def identity_matrix(k: int) -> np.ndarray:
    _check_k(k, MATRIX_QUBIT_CAP)
    return np.eye(1 << k, dtype=np.complex128)


def diffusion_matrix(k: int) -> np.ndarray:
    """Inversion about the mean: 2/2^k everywhere, minus one on the diagonal."""
    _check_k(k, MATRIX_QUBIT_CAP)
    n = 1 << k
    g = np.full((n, n), 2.0 / n, dtype=np.complex128)
    g[np.diag_indices(n)] -= 1.0
    return g


def phase_vector(k: int, marked) -> np.ndarray:
    """Diagonal oracle as a vector: -1 on marked indices, +1 elsewhere."""
    _check_k(k, VECTOR_QUBIT_CAP)
    v = np.ones(1 << k, dtype=np.complex128)
    for x in marked:
        if not 0 <= x < (1 << k):
            raise IndexError(f"marked index {x} out of range for {k} qubits")
        v[x] = -1.0
    return v


@dataclass(frozen=True)
class DenseGroverTrace:
    """Per-iteration record of a flat Grover simulation.

    ``states[t]`` is the state after t full iterations (t = 0 is the
    uniform start), ``success_probs[t]`` the probability mass on the
    marked set at that point.
    """

    k: int
    marked: tuple[int, ...]
    states: tuple[np.ndarray, ...]
    success_probs: tuple[float, ...]


def grover_trace(k: int, marked, iterations: int) -> DenseGroverTrace:
    """Run Grover with a marked-set oracle on a flat state vector.

    One iteration is the phase flip on the marked set followed by the
    inversion about the mean, applied as vector arithmetic.
    """
    _check_k(k, VECTOR_QUBIT_CAP)
    marked = tuple(sorted(set(int(x) for x in marked)))
    for x in marked:
        if not 0 <= x < (1 << k):
            raise IndexError(f"marked index {x} out of range for {k} qubits")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    idx = np.array(marked, dtype=np.intp)
    v = uniform_state(k)
    states = [v.copy()]
    probs = [float(np.sum(np.abs(v[idx]) ** 2)) if marked else 0.0]
    for _ in range(iterations):
        v = v.copy()
        v[idx] = -v[idx]
        v = 2.0 * v.mean() - v
        states.append(v.copy())
        probs.append(float(np.sum(np.abs(v[idx]) ** 2)) if marked else 0.0)
    return DenseGroverTrace(k, marked, tuple(states), tuple(probs))


@dataclass(frozen=True)
class TraceReport:
    """Success-probability profile of a run: the peaks and what follows."""

    success_probs: tuple[float, ...]
    local_maxima: tuple[int, ...]
    first_peak: int | None
    declines_after_first_peak: bool


def amplitude_trace_report(run_record) -> TraceReport:
    """Locate strict local maxima of a ``GroverRun``'s success series.

    Endpoints count as maxima when they strictly beat their single
    neighbour.  ``declines_after_first_peak`` demands a strict drop at
    the iteration right after the first peak, the signature of running
    past the ideal stopping point.
    """
    p = tuple(s.success_prob for s in run_record.trace)
    maxima = []
    last = len(p) - 1
    for t in range(len(p)):
        left_ok = t == 0 or p[t] > p[t - 1]
        right_ok = t == last or p[t] > p[t + 1]
        if left_ok and right_ok and len(p) > 1:
            maxima.append(t)
    first = maxima[0] if maxima else None
    declines = first is not None and first < last and p[first + 1] < p[first]
    return TraceReport(p, tuple(maxima), first, declines)


def enumerate_models(formula: CnfFormula) -> list[int]:
    """All satisfying indices by exhaustive enumeration.

    Raises :class:`FormulaError` beyond ``ENUMERATION_VAR_CAP`` variables.
    """
    if formula.num_vars > ENUMERATION_VAR_CAP:
        raise FormulaError(f"enumeration capped at {ENUMERATION_VAR_CAP}"
                           f" variables, got {formula.num_vars}")
    return [x for x in range(1 << formula.num_vars)
            if evaluate_index(formula, x)]
