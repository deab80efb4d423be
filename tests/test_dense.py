"""The naive full-array simulator that anchors every small-k comparison."""

import math

import numpy as np
import pytest

from quiddsim import dense
from quiddsim.dense import SizeCapError


def test_uniform_state_entries():
    v = dense.uniform_state(5)
    assert v.shape == (32,)
    assert np.max(np.abs(v - 1 / math.sqrt(32))) < 1e-15


def test_basis_state():
    v = dense.basis_state(3, 5)
    assert v[5] == 1
    assert np.count_nonzero(v) == 1


def test_hadamard_matrix_is_unitary():
    for k in range(1, 5):
        h = dense.hadamard_matrix(k)
        assert np.max(np.abs(h.conj().T @ h - np.eye(1 << k))) < 1e-12


def test_hadamard_entries_follow_parity_rule():
    k = 3
    h = dense.hadamard_matrix(k)
    scale = 1 / math.sqrt(1 << k)
    for x in range(8):
        for y in range(8):
            sign = (-1) ** bin(x & y).count("1")
            assert abs(h[x, y] - sign * scale) < 1e-12


def test_kron_of_hadamards_is_half_magnitude():
    h1 = dense.hadamard_matrix(1)
    h2 = np.kron(h1, h1)
    assert np.max(np.abs(np.abs(h2) - 0.5)) < 1e-15
    assert np.max(np.abs(h2 - dense.hadamard_matrix(2))) < 1e-12


def test_matvec_identity():
    v = np.arange(8, dtype=complex)
    assert np.array_equal(dense.identity_matrix(3) @ v, v)


def test_diffusion_matrix_closed_form():
    for k in (1, 2, 4):
        n = 1 << k
        d = dense.diffusion_matrix(k)
        u = dense.uniform_state(k)
        expect = 2.0 * np.outer(u, u.conj()) - np.eye(n)
        assert np.max(np.abs(d - expect)) < 1e-12


def test_phase_vector_marks_requested_indices():
    v = dense.phase_vector(3, [5])
    assert np.array_equal(v, np.array([1, 1, 1, 1, 1, -1, 1, 1], dtype=complex))


def test_grover_trace_reaches_certainty_at_n4():
    trace = dense.grover_trace(2, [3], 1)
    assert np.max(np.abs(trace.states[-1] - dense.basis_state(2, 3))) < 1e-12
    assert abs(trace.success_probs[-1] - 1.0) < 1e-12


def test_grover_trace_conserves_norm():
    trace = dense.grover_trace(6, [7, 9, 21], 12)
    for state in trace.states:
        assert abs(np.vdot(state, state).real - 1) < 1e-12


def test_grover_trace_matches_closed_form():
    k, marked = 7, [3]
    n, m = 1 << k, 1
    theta = math.asin(math.sqrt(m / n))
    trace = dense.grover_trace(k, marked, 8)
    for t, p in enumerate(trace.success_probs):
        assert abs(p - math.sin((2 * t + 1) * theta) ** 2) < 1e-12


def test_vector_cap_enforced():
    with pytest.raises(SizeCapError):
        dense.uniform_state(dense.VECTOR_QUBIT_CAP + 1)


def test_matrix_cap_enforced():
    with pytest.raises(SizeCapError):
        dense.identity_matrix(dense.MATRIX_QUBIT_CAP + 1)
