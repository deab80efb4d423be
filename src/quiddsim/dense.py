"""Flat numpy state-vector simulation, the brute-force reference.

Everything here is deliberately naive: full 2^k arrays, explicit matrix
algebra, no compression.  The diagram code is tested against this module,
never the other way around.  Size caps keep accidental 2^30 allocations
from taking the test host down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quidd import MATRIX_QUBIT_CAP, VECTOR_QUBIT_CAP, SizeCapError


def _check_vector_k(k: int) -> None:
    if not 1 <= k <= VECTOR_QUBIT_CAP:
        raise SizeCapError(f"dense vectors support 1 <= k <= {VECTOR_QUBIT_CAP}, got {k}")


def _check_matrix_k(k: int) -> None:
    if not 1 <= k <= MATRIX_QUBIT_CAP:
        raise SizeCapError(f"dense matrices support 1 <= k <= {MATRIX_QUBIT_CAP}, got {k}")


def uniform_state(k: int) -> np.ndarray:
    _check_vector_k(k)
    n = 1 << k
    return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)


def basis_state(k: int, index: int) -> np.ndarray:
    _check_vector_k(k)
    n = 1 << k
    if not 0 <= index < n:
        raise IndexError(f"basis index {index} out of range for {k} qubits")
    v = np.zeros(n, dtype=np.complex128)
    v[index] = 1.0
    return v


def hadamard_matrix(k: int) -> np.ndarray:
    """H^(x)k; entry (x, y) is (-1)^(x.y) / sqrt(2^k)."""
    _check_matrix_k(k)
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    g = h1
    for _ in range(k - 1):
        g = np.kron(g, h1)
    return g


def identity_matrix(k: int) -> np.ndarray:
    _check_matrix_k(k)
    return np.eye(1 << k, dtype=np.complex128)


def diffusion_matrix(k: int) -> np.ndarray:
    """Inversion about the mean: 2/2^k everywhere, minus one on the diagonal."""
    _check_matrix_k(k)
    n = 1 << k
    g = np.full((n, n), 2.0 / n, dtype=np.complex128)
    g[np.diag_indices(n)] -= 1.0
    return g


def phase_vector(k: int, marked) -> np.ndarray:
    """Diagonal oracle as a vector: -1 on marked indices, +1 elsewhere."""
    _check_vector_k(k)
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
    _check_vector_k(k)
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
