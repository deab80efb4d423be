"""Gate construction: Hadamard powers, phase shift, diffusion."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiddsim import gates, grover
from quiddsim.gates import GateSizeError
from quiddsim.quidd import DiagramDepthError, QuiddError, QuiddManager

import dense_ref as dense
from dense_ref import from_dense, matrix_space, to_dense, vector_space


def dense_power(m, matrix, k):
    """The k-fold tensor power of a 2x2 array, built through from_dense."""
    return from_dense(m, functools.reduce(np.kron, [matrix] * k),
                      matrix_space(k))


def phase_shift_about_zero(m, k):
    """2|0...0><0...0| - I: keeps |0...0>, phase-flips every other state."""
    proj = dense_power(m, np.array([[1.0, 0.0], [0.0, 0.0]]), k)
    ident = dense_power(m, np.eye(2), k)
    return m.apply("add", m.apply("mul", m.terminal(2.0), proj),
                   m.apply("mul", m.terminal(-1.0), ident))


def phase_shift_about_zero_matrix(k):
    """diag(+1, -1, -1, ...): flips the phase of everything but |0...0>."""
    d = -np.ones(1 << k, dtype=np.complex128)
    d[0] = 1.0
    return np.diag(d)


# The gates of the Grover construction and the phase shift of its
# dense cross-check.
GATE_BUILDERS = (gates.hadamard_all, phase_shift_about_zero, gates.diffusion)


def test_hadamard_k1_definition(manager):
    got = to_dense(manager, gates.hadamard_all(manager, 1), matrix_space(1))
    s = 1 / math.sqrt(2)
    assert np.max(np.abs(got - np.array([[s, s], [s, -s]]))) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_hadamard_matches_dense_power(manager, k):
    got = to_dense(manager, gates.hadamard_all(manager, k), matrix_space(k))
    assert np.max(np.abs(got - dense.hadamard_matrix(k))) < 1e-12


@pytest.mark.parametrize("k", range(1, 17))
def test_hadamard_node_count_linear(k):
    m = QuiddManager()
    c = m.count_nodes(gates.hadamard_all(m, k))
    assert c.internal <= 4 * k


def qubit_order_products(f, k):
    """Entry (r, c) of the k-fold power of the 2x2 list ``f``: its k
    factors multiplied as Python complex numbers, in qubit order."""
    n = 1 << k
    out = np.empty((n, n), dtype=complex)
    for r in range(n):
        for c in range(n):
            z = None
            for s in range(k - 1, -1, -1):
                x = f[(r >> s) & 1][(c >> s) & 1]
                z = x if z is None else z * x
            out[r, c] = z
    return out


def test_gates_intern_like_the_dense_build():
    # H's terminals equal the qubit-order products exactly (a zero's
    # sign is its grid cell's), and a dense build in the same manager
    # finds every node the gates made.  The diffusion has a manager of
    # its own, so that its terminals do not stand in for H's products.
    h = 1.0 / math.sqrt(2.0)
    h1 = [[complex(h), complex(h)], [complex(h), complex(-h)]]
    m, md = QuiddManager(), QuiddManager()
    for k in range(1, 7):
        g = gates.hadamard_all(m, k)
        assert np.array_equal(to_dense(m, g, matrix_space(k)),
                              qubit_order_products(h1, k))
        d = gates.diffusion(md, k)
        sizes = m.size, md.size
        assert dense_power(m, np.array(h1), k) == g
        assert from_dense(md, dense.diffusion_matrix(k), matrix_space(k)) == d
        assert (m.size, md.size) == sizes


@pytest.mark.parametrize("k", [1, 2, 6, 20])
def test_diffusion_builds_three_nodes_per_qubit(k):
    # The build creates nothing it does not keep: 3 internal nodes per
    # qubit and the two terminals.  At k=1 the diagonal terminal
    # 2/2 - 1 is the zero, which a manager holds from the start.
    m = QuiddManager()
    before = m.nodes_created
    d = gates.diffusion(m, k)
    assert m.count_nodes(d) == (3 * k, 2)
    assert m.nodes_created - before == 3 * k + 2 - (k == 1)


def test_phase_shift_k1(manager):
    got = to_dense(manager, phase_shift_about_zero(manager, 1),
                   matrix_space(1))
    assert np.array_equal(got, np.diag([1, -1]).astype(complex))


def test_phase_shift_about_zero_matrix():
    p = phase_shift_about_zero_matrix(2)
    assert np.array_equal(np.diag(p), np.array([1, -1, -1, -1], dtype=complex))
    assert np.count_nonzero(p - np.diag(np.diag(p))) == 0


def test_phase_shift_on_uniform_state(manager):
    k = 3
    p = phase_shift_about_zero(manager, k)
    u = from_dense(manager, dense.uniform_state(k), vector_space(k))
    got = to_dense(manager, manager.matvec(p, u, k), vector_space(k))
    expect = phase_shift_about_zero_matrix(k) @ dense.uniform_state(k)
    assert np.max(np.abs(got - expect)) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_phase_shift_diagonal_node_count(manager, k):
    # Linear in k over the three terminals 1, -1 and 0: the all-zero
    # prefix chain plus the shared -I tail below it.
    p = phase_shift_about_zero(manager, k)
    assert manager.count_nodes(p) == (5 * k - 2, 3)


def test_diffusion_worked_example(manager):
    v = from_dense(manager, np.array([-0.5, 0.5, 0.5, 0.5], dtype=complex),
                   vector_space(2))
    d = gates.diffusion(manager, 2)
    got = to_dense(manager, manager.matvec(d, v, 2), vector_space(2))
    assert np.array_equal(got, np.array([1, 0, 0, 0], dtype=complex))


def test_diffusion_fixes_constant_vectors(manager):
    k = 4
    d = gates.diffusion(manager, k)
    c = from_dense(manager, np.full(16, 0.25, dtype=complex), vector_space(k))
    assert manager.matvec(d, c, k) == c


@pytest.mark.parametrize("k", range(1, 7))
def test_diffusion_closed_form_entries(manager, k):
    got = to_dense(manager, gates.diffusion(manager, k), matrix_space(k))
    n = 1 << k
    expect = np.full((n, n), 2 / n, dtype=complex) - np.eye(n)
    assert np.max(np.abs(got - expect)) < 1e-12


@pytest.mark.parametrize("k", range(1, 7))
def test_diffusion_is_self_inverse(manager, k):
    d = to_dense(manager, gates.diffusion(manager, k), matrix_space(k))
    assert np.max(np.abs(d @ d - np.eye(1 << k))) < 1e-10


def test_diffusion_equals_hadamard_sandwich(manager):
    # H (2|0><0|-I) H, composed on dense arrays, is the direct
    # construction up to the dense products' round-off.
    for k in (1, 2, 3, 5):
        ms = matrix_space(k)
        h = to_dense(manager, gates.hadamard_all(manager, k), ms)
        p = to_dense(manager, phase_shift_about_zero(manager, k), ms)
        d = to_dense(manager, gates.diffusion(manager, k), ms)
        assert np.max(np.abs(h @ p @ h - d)) < 1e-12


@pytest.mark.parametrize("k", range(1, 7))
def test_gates_are_unitary(manager, k):
    for build in GATE_BUILDERS:
        g = build(manager, k)
        gd = to_dense(manager, g, matrix_space(k))
        assert np.max(np.abs(gd.conj().T @ gd - np.eye(1 << k))) < 1e-10


@given(k=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_gates_preserve_norm(k, seed):
    m = QuiddManager()
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    v /= np.linalg.norm(v)
    rv = from_dense(m, v, vector_space(k))
    for build in GATE_BUILDERS:
        g = build(m, k)
        out = m.matvec(g, rv, k)
        assert abs(m.inner_product(out, out, k).real - 1) < 1e-9


def test_hadamard_self_inverse_by_reference(manager):
    # H H, multiplied on dense arrays, is the identity's node.
    for k in (1, 2, 4):
        h = to_dense(manager, gates.hadamard_all(manager, k), matrix_space(k))
        assert from_dense(manager, h @ h, matrix_space(k)) == \
            dense_power(manager, np.eye(2), k)


def test_invalid_sizes_rejected(manager):
    with pytest.raises(GateSizeError):
        gates.hadamard_all(manager, 0)
    with pytest.raises(GateSizeError):
        gates.diffusion(manager, -1)


def test_too_many_qubits_raise_a_typed_error(manager):
    # H^k recurses once per qubit, so k = 3000 is far too deep for the
    # recursion limit.  The diffusion is built in a loop and has its 3k
    # nodes even at k = 1024, where 2/2^k once overflowed a float
    # conversion; what then recurses over it raises the typed error.
    k = 1024
    with pytest.raises(QuiddError):
        gates.hadamard_all(manager, 3000)
    d = gates.diffusion(manager, k)
    assert manager.count_nodes(d) == (3 * k, 2)
    with pytest.raises(DiagramDepthError):
        grover.initialize_state(manager, k)
    zero, basis = manager.terminal(0), manager.terminal(1)
    for q in range(k - 1, -1, -1):
        basis = manager.node(2 * q, basis, zero)
    with pytest.raises(DiagramDepthError):
        manager.matvec(d, basis, k)
