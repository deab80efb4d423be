"""Core diagram behaviour: interning, reduction, and the graph algebra."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quiddsim import gates, grover, oracle, quidd
from quiddsim.cnf import CnfFormula
from quiddsim.quidd import (
    GRID,
    InvalidAmplitudeError,
    MaskError,
    QuiddManager,
    SizeCapError,
    SpaceMismatchError,
    VariableOrderError,
    matrix_space,
    vector_space,
)

amplitudes = st.builds(
    complex,
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
)


def dense_vectors(k):
    return st.lists(amplitudes, min_size=1 << k, max_size=1 << k).map(
        lambda xs: np.array(xs, dtype=complex))


def dense_matrices(k):
    n = 1 << k
    return st.lists(amplitudes, min_size=n * n, max_size=n * n).map(
        lambda xs: np.array(xs, dtype=complex).reshape(n, n))


def assert_well_formed(m, ref):
    """Every reachable node is ordered, reduced, and properly interned,
    and its children's refs are below its own."""
    seen = set()
    stack = [ref]
    while stack:
        r = stack.pop()
        if r in seen:
            continue
        seen.add(r)
        if m.is_terminal(r):
            continue
        lo, hi = m.low(r), m.high(r)
        assert lo != hi, "redundant node survived reduction"
        assert lo < r and hi < r, "child ref above its parent's"
        for child in (lo, hi):
            if not m.is_terminal(child):
                assert m.var(r) < m.var(child), "ordering violated"
            stack.append(child)


# ---------------------------------------------------------------------------
# terminals and internal nodes


def test_terminal_interning_idempotent(manager):
    assert manager.terminal(0.25) == manager.terminal(0.25)


def test_terminal_quantization_merges_nearby_values(manager):
    assert manager.terminal(0.5) == manager.terminal(0.5 + GRID / 4)


def test_terminal_distinguishes_values_outside_grid(manager):
    assert manager.terminal(0.5) != manager.terminal(0.5 + 10 * GRID)


def test_terminal_rejects_non_finite(manager):
    for bad in (float("nan"), float("inf"), complex(0, float("-inf"))):
        with pytest.raises(InvalidAmplitudeError):
            manager.terminal(bad)


def test_zero_cell_is_canonical_zero(manager):
    # Anything that lands in the zero cell must store an exact 0j so the
    # annihilator shortcuts stay reference-exact.
    z = manager.terminal(GRID / 3)
    assert z == manager.terminal(0)
    assert manager.value(z) == 0j


def test_negative_zero_folds_into_zero(manager):
    assert manager.terminal(-0.0) == manager.terminal(0.0)


def test_internal_reduction_returns_child(manager):
    t = manager.terminal(1.0)
    assert manager.node(0, t, t) == t


def test_internal_interning(manager):
    a, b = manager.terminal(0.0), manager.terminal(1.0)
    assert manager.node(2, a, b) == manager.node(2, a, b)


def test_internal_ordering_enforced(manager):
    a, b = manager.terminal(0.0), manager.terminal(1.0)
    child = manager.node(2, a, b)
    with pytest.raises(VariableOrderError):
        manager.node(2, child, a)
    with pytest.raises(VariableOrderError):
        manager.node(6, child, a)
    with pytest.raises(VariableOrderError):
        manager.node(-1, a, b)


# ---------------------------------------------------------------------------
# apply / scalar_mul


def test_apply_add_constants(manager):
    r = manager.apply("add", manager.terminal(0.5), manager.terminal(0.25))
    assert r == manager.terminal(0.75)
    assert manager.is_terminal(r)


def test_apply_mul_by_one_is_reference_neutral(manager):
    v = manager.from_dense(np.array([1, 2, 3, 4], dtype=complex), vector_space(2))
    assert manager.apply("mul", v, manager.terminal(1.0)) == v
    assert manager.apply("mul", manager.terminal(1.0), v) == v


def test_apply_add_zero_is_reference_neutral(manager):
    v = manager.from_dense(np.array([1, 2, 3, 4], dtype=complex), vector_space(2))
    assert manager.apply("add", v, manager.terminal(0.0)) == v


def test_apply_mul_by_zero_annihilates(manager):
    v = manager.from_dense(np.array([1, 2, 3, 4], dtype=complex), vector_space(2))
    assert manager.apply("mul", v, manager.terminal(0.0)) == manager.terminal(0.0)


def test_apply_rejects_unknown_op(manager):
    t = manager.terminal(1.0)
    with pytest.raises(ValueError):
        manager.apply("sub", t, t)


def test_apply_rejects_mixed_spaces(manager):
    v = manager.from_dense(np.array([1, 0], dtype=complex), vector_space(1))
    g = manager.from_dense(np.eye(2, dtype=complex), matrix_space(1))
    with pytest.raises(SpaceMismatchError):
        manager.apply("add", v, g)


@given(a=dense_vectors(3), b=dense_vectors(3))
def test_apply_matches_dense_elementwise(a, b):
    m = QuiddManager()
    ra = m.from_dense(a, vector_space(3))
    rb = m.from_dense(b, vector_space(3))
    got_add = m.to_dense(m.apply("add", ra, rb), vector_space(3))
    got_mul = m.to_dense(m.apply("mul", ra, rb), vector_space(3))
    assert np.max(np.abs(got_add - (a + b))) < 1e-12
    assert np.max(np.abs(got_mul - a * b)) < 1e-12


@pytest.mark.parametrize("op", ["add", "mul"])
@given(c=amplitudes, x=dense_vectors(3))
@example(c=0j, x=np.arange(8, dtype=complex))
@example(c=1 + 0j, x=np.arange(8, dtype=complex))
def test_apply_with_a_terminal_operand_matches_dense(op, c, x):
    m = QuiddManager()
    rx = m.from_dense(x, vector_space(3))
    rc = m.terminal(c)
    # apply combines with the grid cell's representative, one Python
    # complex at a time (numpy's vector multiply may round differently).
    cv = m.value(rc)
    dense = [cv + complex(v) if op == "add" else cv * complex(v) for v in x]
    want = m.from_dense(dense, vector_space(3))
    assert m.apply(op, rc, rx) == want
    assert m.apply(op, rx, rc) == want


def test_scalar_mul_identity_and_annihilator(manager):
    v = manager.from_dense(np.array([-0.5, 0.5], dtype=complex), vector_space(1))
    assert manager.scalar_mul(1.0, v) == v
    assert manager.scalar_mul(0.0, v) == manager.terminal(0.0)
    doubled = manager.to_dense(manager.scalar_mul(2.0, v), vector_space(1))
    assert np.array_equal(doubled, np.array([-1.0, 1.0], dtype=complex))


def test_scalar_mul_rejects_non_finite(manager):
    with pytest.raises(InvalidAmplitudeError):
        manager.scalar_mul(float("nan"), manager.terminal(1.0))


# ---------------------------------------------------------------------------
# tensor


def test_tensor_of_terminals_multiplies(manager):
    r = manager.tensor(manager.terminal(2.0), manager.terminal(0.5), 0)
    assert r == manager.terminal(1.0)


def test_tensor_matches_kron_for_hadamard(manager):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    rh = manager.from_dense(h, matrix_space(1))
    got = manager.to_dense(manager.tensor(rh, rh, 1), matrix_space(2))
    assert np.max(np.abs(got - np.kron(h, h))) < 1e-12
    assert np.max(np.abs(np.abs(got) - 0.5)) < 1e-12


def test_tensor_of_identities_is_identity(manager):
    i1 = manager.from_dense(np.eye(2, dtype=complex), matrix_space(1))
    i2 = manager.from_dense(np.eye(4, dtype=complex), matrix_space(2))
    assert manager.tensor(i1, i1, 1) == i2


def test_tensor_rejects_mixed_space_kinds(manager):
    v = manager.from_dense(np.array([1, 0], dtype=complex), vector_space(1))
    g = manager.from_dense(np.eye(2, dtype=complex), matrix_space(1))
    with pytest.raises(SpaceMismatchError):
        manager.tensor(v, g, 1)


@given(a=dense_vectors(1), b=dense_vectors(2))
def test_tensor_matches_kron_on_vectors(a, b):
    m = QuiddManager()
    ra = m.from_dense(a, vector_space(1))
    rb = m.from_dense(b, vector_space(2))
    got = m.to_dense(m.tensor(ra, rb, 1), vector_space(3))
    assert np.max(np.abs(got - np.kron(a, b))) < 1e-12


# ---------------------------------------------------------------------------
# matvec / matmat / inner product


def test_matvec_identity_is_reference_neutral(manager):
    v = manager.from_dense(np.arange(8, dtype=complex), vector_space(3))
    i3 = manager.from_dense(np.eye(8, dtype=complex), matrix_space(3))
    assert manager.matvec(i3, v, 3) == v


def test_matvec_hadamard_on_basis(manager):
    h = manager.from_dense(
        np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), matrix_space(1))
    zero = manager.from_dense(np.array([1, 0], dtype=complex), vector_space(1))
    got = manager.to_dense(manager.matvec(h, zero, 1), vector_space(1))
    s = 1 / math.sqrt(2)
    assert np.max(np.abs(got - np.array([s, s]))) < 1e-12


@given(g=dense_matrices(3), v=dense_vectors(3))
def test_matvec_matches_dense(g, v):
    m = QuiddManager()
    rg = m.from_dense(g, matrix_space(3))
    rv = m.from_dense(v, vector_space(3))
    got = m.to_dense(m.matvec(rg, rv, 3), vector_space(3))
    assert np.max(np.abs(got - g @ v)) < 1e-12


def test_matvec_handles_constant_blocks_exactly(manager):
    # Constant sub-blocks take the summed fast path; pin it against dense.
    k = 4
    rng = np.random.default_rng(9)
    g = np.full((16, 16), 0.25, dtype=complex)
    g[2:6, 8:12] = rng.normal(size=(4, 4))
    v = np.full(16, 0.5, dtype=complex)
    v[3:11] = rng.normal(size=8)
    rg = manager.from_dense(g, matrix_space(k))
    rv = manager.from_dense(v, vector_space(k))
    got = manager.to_dense(manager.matvec(rg, rv, k), vector_space(k))
    assert np.max(np.abs(got - g @ v)) < 1e-12


def test_matvec_rejects_swapped_operands(manager):
    v = manager.from_dense(np.arange(4, dtype=complex), vector_space(2))
    g = manager.from_dense(np.diag([1, 2, 3, 4]).astype(complex), matrix_space(2))
    with pytest.raises(SpaceMismatchError):
        manager.matvec(v, g, 2)


def test_matvec_rejects_oversized_vector(manager):
    v = manager.from_dense(np.arange(8, dtype=complex), vector_space(3))
    g = manager.from_dense(np.eye(2, dtype=complex), matrix_space(1))
    with pytest.raises(SpaceMismatchError):
        manager.matvec(g, v, 1)


# Each case breaks a space rule in one operand, nearly all of them only
# in a part that the kernel never reads: the part lies under a zero block
# of the gate, under a zero of the mask or under a zero of the other
# operand, where the kernels cut short.  The check reads the whole
# diagram, so each raises.
DEEP2 = [1, 1, 2, 3]        # two qubits; deep only in the high half
EXACT_SPACE_CASES = {
    "matvec-vector-deep-under-zero-gate-block": lambda m: m.matvec(
        m.from_dense([[1, 0], [0, 0]], matrix_space(1)),
        m.from_dense(DEEP2, vector_space(2)), 1),
    "matvec-gate-deep-under-zero-vector": lambda m: m.matvec(
        m.from_dense([[1, 1, 1, 2], [1, 1, 3, 4]] * 2, matrix_space(2)),
        m.from_dense([1, 0], vector_space(1)), 1),
    "matvec-phase-deeper-than-k": lambda m: m.matvec(
        m.from_dense([[1, 0], [0, 1]], matrix_space(1)),
        m.from_dense([1, 2], vector_space(1)), 1,
        m.from_dense(DEEP2, vector_space(2))),
    "matvec-phase-uses-column-variables": lambda m: m.matvec(
        m.from_dense([[1, 0], [0, 1]], matrix_space(1)),
        m.from_dense([1, 2], vector_space(1)), 1,
        m.from_dense([[1, 1], [2, 3]], matrix_space(1))),
    "matvec-phase-deep-under-zero-gate-block": lambda m: m.matvec(
        m.from_dense([[1, 0], [0, 0]], matrix_space(1)),
        m.from_dense([1, 2], vector_space(1)), 1,
        m.from_dense(DEEP2, vector_space(2))),
    "inner_product-deep-under-zero-operand": lambda m: m.inner_product(
        m.from_dense([1, 0], vector_space(1)),
        m.from_dense(DEEP2, vector_space(2)), 1),
    "inner_product-operand-deep-under-zero-mask": lambda m: m.inner_product(
        m.from_dense(DEEP2, vector_space(2)),
        m.from_dense(DEEP2, vector_space(2)), 1,
        m.from_dense([1, 0], vector_space(1))),
    "inner_product-mask-deep-under-zero-operand": lambda m: m.inner_product(
        m.from_dense([1, 0], vector_space(1)),
        m.from_dense([1, 0], vector_space(1)), 1,
        m.from_dense([1, 1, 0, 1], vector_space(2))),
    "apply-column-variable-under-zero-operand": lambda m: m.apply(
        "mul", m.from_dense([0, 1], vector_space(1)),
        m.from_dense([[1, 2], [3, 3]], matrix_space(1))),
    # The graft only meets b at a's terminals 0 and 1, which annihilate
    # and return it whole.
    "tensor-column-variable-under-zero-and-one": lambda m: m.tensor(
        m.from_dense([0, 1], vector_space(1)),
        m.from_dense([[1, 2], [3, 3]], matrix_space(1)), 1),
}


@pytest.mark.parametrize("call", EXACT_SPACE_CASES.values(),
                         ids=EXACT_SPACE_CASES.keys())
def test_space_checks_read_parts_the_kernels_skip(manager, call):
    with pytest.raises(SpaceMismatchError):
        call(manager)


def test_matmat_hadamard_squares_to_identity(manager):
    h = manager.from_dense(
        np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), matrix_space(1))
    i1 = manager.from_dense(np.eye(2, dtype=complex), matrix_space(1))
    assert manager.matmat(h, h, 1) == i1


def test_matmat_identity_is_reference_neutral(manager):
    i2 = manager.from_dense(np.eye(4, dtype=complex), matrix_space(2))
    b = manager.from_dense(np.arange(16, dtype=complex).reshape(4, 4),
                           matrix_space(2))
    assert manager.matmat(i2, b, 2) == b


@given(a=dense_matrices(2), b=dense_matrices(2))
def test_matmat_matches_dense(a, b):
    m = QuiddManager()
    ra = m.from_dense(a, matrix_space(2))
    rb = m.from_dense(b, matrix_space(2))
    got = m.to_dense(m.matmat(ra, rb, 2), matrix_space(2))
    assert np.max(np.abs(got - a @ b)) < 1e-12


def test_inner_product_basics(manager):
    zero = manager.from_dense(np.array([1, 0], dtype=complex), vector_space(1))
    one = manager.from_dense(np.array([0, 1], dtype=complex), vector_space(1))
    assert manager.inner_product(zero, one, 1) == 0
    uniform = manager.from_dense(np.full(8, 1 / math.sqrt(8), dtype=complex),
                                 vector_space(3))
    assert abs(manager.inner_product(uniform, uniform, 3) - 1) < 1e-9


@given(u=dense_vectors(3), v=dense_vectors(3))
def test_inner_product_matches_vdot(u, v):
    m = QuiddManager()
    ru = m.from_dense(u, vector_space(3))
    rv = m.from_dense(v, vector_space(3))
    got = m.inner_product(ru, rv, 3)
    assert abs(got - np.vdot(u, v)) < 1e-10
    assert abs(m.inner_product(rv, ru, 3) - got.conjugate()) < 1e-10


# Few distinct amplitudes, so equal halves reduce away and skip levels.
FEW_AMPLITUDES = st.sampled_from([0, 0.5, -0.25, 0.3j, 0.6 - 0.2j, 1e-9])


@st.composite
def masked_vectors(draw):
    k = draw(st.integers(1, 6))
    n = 1 << k
    mask = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    u = draw(st.lists(FEW_AMPLITUDES, min_size=n, max_size=n))
    v = draw(st.lists(FEW_AMPLITUDES, min_size=n, max_size=n))
    return k, mask, u, v


@given(masked_vectors())
@example((3, [1] * 8, [0.5] * 8, [0.5, -0.25] * 4))     # mask is terminal 1
@example((3, [0] * 8, [0.5] * 8, [0.5, -0.25] * 4))     # mask is terminal 0
@example((3, [0, 1] * 4, [0.3j] * 8, [0.3j] * 8))       # vectors are terminals
@example((4, [0, 0, 1, 1] * 4, [0.5] * 16,              # mask and vector skip
          [0.5, -0.25, 0.5, -0.25, 0.3j, 0.3j, 0.3j, 0.3j] * 2))  # other qubits
def test_masked_inner_product_equals_inner_product_of_masked_vector(case):
    k, mask, u, v = case
    space = vector_space(k)
    m = QuiddManager()
    ru, rv, rmask = (m.from_dense(np.array(x, dtype=complex), space)
                     for x in (u, v, mask))
    got = m.inner_product(rv, rv, k, rmask)[0]
    # The masked vector is built in a manager of its own, so no table
    # entry of the masked walk can reach the reference.
    ref = QuiddManager()
    w = ref.apply("mul", ref.from_dense(np.array(mask, dtype=complex), space),
                  ref.from_dense(np.array(v, dtype=complex), space))
    assert got == ref.inner_product(w, w, k)
    want = np.vdot(np.array(u), np.array(mask) * np.array(v))
    assert abs(m.inner_product(ru, rv, k, rmask)[0] - want) < 1e-12


@given(masked_vectors())
def test_masked_inner_product_returns_the_full_sum_bit_for_bit(case):
    k, mask, u, v = case
    space = vector_space(k)
    # One manager per side, so no table entry is shared between them.
    m, ref = QuiddManager(), QuiddManager()
    ru, rv, rmask = (m.from_dense(np.array(x, dtype=complex), space)
                     for x in (u, v, mask))
    full = ref.inner_product(ref.from_dense(np.array(u, dtype=complex), space),
                             ref.from_dense(np.array(v, dtype=complex), space),
                             k)
    assert m.inner_product(ru, rv, k, rmask)[1] == full


def test_masked_inner_product_rejects_a_mask_that_is_not_zero_one(manager):
    v = manager.from_dense(np.array([0.5, 0.5j]), vector_space(1))
    mask = manager.from_dense(np.array([1, 0.5]), vector_space(1))
    with pytest.raises(MaskError):
        manager.inner_product(v, v, 1, mask)


def test_masked_inner_product_reads_the_mask_under_a_zero_operand(manager):
    # The bad mask terminal lies under the operand's zero entry, where the
    # walk cuts short; the mask is read first, so it still raises.
    v = manager.from_dense(np.array([0.5, 0]), vector_space(1))
    mask = manager.from_dense(np.array([1, 0.5]), vector_space(1))
    with pytest.raises(MaskError):
        manager.inner_product(v, v, 1, mask)


@st.composite
def phased_products(draw):
    """(k, gate kind, dense gate or None, vector, phase) for k <= 4."""
    k = draw(st.integers(1, 4))
    n, h = 1 << k, 1 << (k - 1)
    kind = draw(st.sampled_from(["random", "blocks", "diffusion", "hadamard"]))
    gate = None
    if kind == "random":
        gate = np.array(draw(st.lists(amplitudes, min_size=n * n,
                                      max_size=n * n))).reshape(n, n)
    elif kind == "blocks":
        # Quadrants that are zero, constant or free, so the kernel meets
        # zero and constant gate blocks at the top level and below.
        quads = [draw(st.one_of(
            st.just(np.zeros((h, h))),
            FEW_AMPLITUDES.map(lambda c: np.full((h, h), c)),
            st.lists(FEW_AMPLITUDES, min_size=h * h, max_size=h * h).map(
                lambda xs: np.array(xs).reshape(h, h)))) for _ in range(4)]
        gate = np.block([quads[:2], quads[2:]])
    vec = draw(st.lists(st.one_of(FEW_AMPLITUDES, amplitudes),
                        min_size=n, max_size=n))
    phase = draw(st.one_of(
        st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
        st.just([-1] * n),
        st.lists(st.one_of(st.just(0), FEW_AMPLITUDES, amplitudes),
                 min_size=n, max_size=n)))
    return k, kind, gate, vec, phase


def build_gate(m, k, kind, gate):
    if kind == "diffusion":
        return gates.diffusion(m, k)
    if kind == "hadamard":
        return gates.hadamard_all(m, k)
    return m.from_dense(gate, matrix_space(k))


def relabelled_dump(m, root):
    """``m.dump(root)`` with every id replaced by its post-order rank, so
    equal diagrams held by two managers give equal dumps."""
    rank = {}

    def walk(n):
        if n not in rank:
            if not m.is_terminal(n):
                walk(m.low(n))
                walk(m.high(n))
            rank[n] = len(rank)

    walk(root)
    lines = []
    for line in m.dump(root).splitlines():
        ref, var, *rest = line.split()
        if var != "T":
            rest = [str(rank[int(x)]) for x in rest]
        lines.append((rank[int(ref)], var, *rest))
    return sorted(lines)


def fused_walk_is_exact(fm, rm, phase, vec, product):
    """Whether the phase-carrying walk in ``fm`` must match, bit for bit,
    the walk over ``product = apply("mul", phase, vec)`` built in ``rm``.

    Two things can part them.  The product may reduce a node where the
    pair (phase block, vector block) still branches under a non-constant
    phase block, as [1, -1] times [a, -a] does: the built product's walk
    then takes a shortcut the other does not.  And the walk may make a
    terminal in the grid cell of a product entry, from another value,
    before it reaches that entry: the cell then keeps the walk's value.
    """
    def kept(var, p, w):
        if rm.is_terminal(p):
            return True
        prod = rm.apply("mul", p, w)
        ps = (rm.low(p), rm.high(p)) if rm.var(p) == var else (p, p)
        ws = (rm.low(w), rm.high(w)) if rm.var(w) == var else (w, w)
        branches = ps[0] != ps[1] or ws[0] != ws[1]
        return (not rm.is_terminal(prod) and (rm.var(prod) == var) == branches
                and all(kept(var + 2, a, b) for a, b in zip(ps, ws)))

    return kept(0, phase, vec) and all(
        repr(fm.value(fm.terminal(rm.value(n)))) == repr(rm.value(n))
        for n in rm.reachable(product) if rm.is_terminal(n))


@given(phased_products())
@example((2, "diffusion", None, [0.5] * 4, [1, 1, -1, 1]))  # one Grover step
@example((2, "hadamard", None, [0.5] * 4, [1, 0, 0.3j, 1]))  # constant vector
@example((1, "blocks", np.array([[0, 0.5], [0, 0]]), [1, 2], [0, -1]))
def test_matvec_with_phase_matches_matvec_of_the_built_product(case):
    k, kind, gate, vec, phase = case
    space = vector_space(k)
    # One manager per side, so no table entry or terminal made by one
    # side can reach the other.
    fm, rm = QuiddManager(), QuiddManager()
    (fg, fv, fp), (rg, rv, rp) = (
        (build_gate(m, k, kind, gate),
         *(m.from_dense(np.array(x, dtype=complex), space) for x in (vec, phase)))
        for m in (fm, rm))
    got_ref = fm.matvec(fg, fv, k, phase=fp)
    product = rm.apply("mul", rp, rv)
    want_ref = rm.matvec(rg, product, k)
    got, want = fm.to_dense(got_ref, space), rm.to_dense(want_ref, space)
    if fused_walk_is_exact(fm, rm, rp, rv, product):
        assert got.tobytes() == want.tobytes()
        assert relabelled_dump(fm, got_ref) == relabelled_dump(rm, want_ref)
    else:
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@given(phased_products())
def test_matvec_with_an_all_plus_one_phase_is_plain_matvec(case):
    k, kind, gate, vec, _ = case
    space = vector_space(k)
    m = QuiddManager()
    rg = build_gate(m, k, kind, gate)
    rv = m.from_dense(np.array(vec, dtype=complex), space)
    ones = m.from_dense(np.ones(1 << k), space)
    assert m.matvec(rg, rv, k, phase=ones) == m.matvec(rg, rv, k)


# ---------------------------------------------------------------------------
# entries, counting, round trips


def test_entry_at_constant_diagram(manager):
    c = manager.terminal(0.125)
    assert manager.entry_at(c, 5, k=3) == 0.125
    assert manager.entry_at(c, 0b011, k=3) == 0.125


def test_entry_at_uniform_state(manager):
    u = manager.from_dense(np.full(32, 1 / math.sqrt(32), dtype=complex),
                           vector_space(5))
    assert abs(manager.entry_at(u, 0b01101, k=5) - 1 / math.sqrt(32)) < 1e-12


def test_entry_at_follows_skipped_levels(manager):
    # Qubit 0 is skipped at the root, qubit 2 below it: entry x depends on
    # bit 1 (value 2) only.
    want = np.array([1, 1, 2, 2, 1, 1, 2, 2], dtype=complex)
    v = manager.from_dense(want, vector_space(3))
    assert manager.count_nodes(v).internal == 1
    for idx in range(8):
        assert manager.entry_at(v, idx, k=3) == want[idx]


def test_entry_at_recovers_every_dense_entry(manager):
    rng = np.random.default_rng(3)
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    rv = manager.from_dense(v, vector_space(5))
    for idx in range(32):
        assert abs(manager.entry_at(rv, idx, k=5) - v[idx]) < 1e-12


def test_entry_at_rejects_bad_index(manager):
    v = manager.from_dense(np.arange(4, dtype=complex), vector_space(2))
    with pytest.raises(SpaceMismatchError):
        manager.entry_at(v, 0, k=1)     # k too small for the diagram
    with pytest.raises(IndexError):
        manager.entry_at(v, 4, k=2)     # out of range


def test_entry_at_rejects_a_diagram_deeper_than_k_on_every_index(manager):
    # The paths to x = 0..2 end on a terminal before the deep node; the
    # vector still does not fit two qubits, as inner_product says.
    v = manager.from_dense([1, 1, 1, 1, 1, 1, 1, 2], vector_space(3))
    with pytest.raises(SpaceMismatchError):
        manager.inner_product(v, v, 2)
    for x in range(4):
        with pytest.raises(SpaceMismatchError):
            manager.entry_at(v, x, k=2)


def test_count_nodes_terminal(manager):
    c = manager.count_nodes(manager.terminal(1.0))
    assert (c.internal, c.terminal) == (0, 1)


def test_count_nodes_deduplicates_roots(manager):
    v = manager.from_dense(np.arange(8, dtype=complex), vector_space(3))
    assert manager.count_nodes(v, v) == manager.count_nodes(v)


def test_count_nodes_uniform_state_is_single_terminal(manager):
    u = manager.from_dense(np.full(16, 0.25, dtype=complex), vector_space(4))
    c = manager.count_nodes(u)
    assert (c.internal, c.terminal) == (0, 1)


def test_subtree_sums_scale_skipped_levels(manager):
    # [1, 1, 2, 3] twice: qubit 0 is skipped above the root and qubit 2
    # below its low child.
    v = manager.from_dense(np.array([1, 1, 2, 3] * 2, dtype=complex),
                           vector_space(3))
    sums = manager.subtree_sums(v, 3, lambda z: z.real)
    assert manager.var(v) == 2
    assert sums[v] == 7                  # one block of qubits 1 and 2
    assert sums[manager.low(v)] == 1     # a terminal is its own entry


def test_subtree_sums_walk_deeper_than_recursion_limit(manager):
    # -1 at index 0 of a 5000-qubit vector, one node per qubit.
    k = 5000
    cur = manager.terminal(-1)
    for q in range(k - 1, -1, -1):
        cur = manager.node(2 * q, cur, manager.terminal(1))
    negatives = manager.subtree_sums(cur, k, lambda z: 1 if z.real < 0 else 0)
    assert negatives[cur] == 1
    assert manager.subtree_sums(cur, k, lambda z: 1)[cur] == 1 << k


@given(v=dense_vectors(4))
def test_node_count_sanity_bound(v):
    m = QuiddManager()
    c = m.count_nodes(m.from_dense(v, vector_space(4)))
    assert c.internal + c.terminal <= 1 << 5


def test_from_dense_basis_state(manager):
    r = manager.from_dense(np.array([1, 0, 0, 0], dtype=complex), vector_space(2))
    assert manager.entry_at(r, 0, k=2) == 1
    assert_well_formed(manager, r)


@given(v=dense_vectors(3))
def test_round_trip_is_canonical(v):
    m = QuiddManager()
    r1 = m.from_dense(v, vector_space(3))
    r2 = m.from_dense(m.to_dense(r1, vector_space(3)), vector_space(3))
    assert r1 == r2
    assert_well_formed(m, r1)


def test_canonicity_across_construction_routes(manager):
    # from_dense of a Kronecker product must meet tensor() at the same node.
    a = np.array([0.5, -0.5], dtype=complex)
    b = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    direct = manager.from_dense(np.kron(a, b), vector_space(3))
    composed = manager.tensor(manager.from_dense(a, vector_space(1)),
                              manager.from_dense(b, vector_space(2)), 1)
    assert direct == composed


def test_to_dense_respects_vector_cap():
    m = QuiddManager()
    c = m.terminal(1.0)
    with pytest.raises(SizeCapError):
        m.to_dense(c, vector_space(21))


def test_to_dense_respects_matrix_cap():
    m = QuiddManager()
    c = m.terminal(1.0)
    with pytest.raises(SizeCapError):
        m.to_dense(c, matrix_space(13))


def test_to_dense_rejects_a_diagram_outside_the_space(manager):
    v = manager.from_dense(np.arange(8.0), vector_space(3))
    with pytest.raises(SpaceMismatchError):
        manager.to_dense(v, vector_space(2))
    g = manager.from_dense([[1, 2], [3, 4]], matrix_space(1))
    with pytest.raises(SpaceMismatchError):
        manager.to_dense(g, vector_space(1))
    with pytest.raises(SpaceMismatchError):
        manager.to_dense(manager.tensor(g, g, 1), matrix_space(1))


def test_matrix_round_trip(manager):
    rng = np.random.default_rng(11)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rg = manager.from_dense(g, matrix_space(3))
    assert np.max(np.abs(manager.to_dense(rg, matrix_space(3)) - g)) < 1e-12
    assert rg == manager.from_dense(g, matrix_space(3))


# ---------------------------------------------------------------------------
# cache behaviour


class NoMemoManager(QuiddManager):
    """A manager whose computed tables stay empty: nothing is remembered."""

    def _remember(self, cache, key, r):
        return r


def test_cache_disabled_gives_identical_references():
    on = QuiddManager()
    off = NoMemoManager()
    rng = np.random.default_rng(5)
    v = rng.normal(size=16).astype(complex)
    g = rng.normal(size=(16, 16)).astype(complex)
    outs = []
    for m in (on, off):
        rv = m.from_dense(v, vector_space(4))
        rg = m.from_dense(g, matrix_space(4))
        outs.append(m.to_dense(m.matvec(rg, rv, 4), vector_space(4)))
    assert np.max(np.abs(outs[0] - outs[1])) == 0


def test_cache_disabled_enters_nothing():
    m = NoMemoManager()
    rng = np.random.default_rng(9)
    a = m.from_dense(rng.normal(size=(8, 8)).astype(complex), matrix_space(3))
    b = m.from_dense(rng.normal(size=(8, 8)).astype(complex), matrix_space(3))
    u = m.from_dense(rng.normal(size=8).astype(complex), vector_space(3))
    m.matvec(m.matmat(a, b, 3), u, 3)
    m.matvec(m.terminal(0.5), u, 3)
    m.matvec(a, m.from_dense(np.repeat([1.0, 2.0], 4), vector_space(3)), 3)
    m.inner_product(u, m.apply("mul", u, u), 3)
    m.inner_product(u, u, 3, m.from_dense(np.repeat([0.0, 1.0], 4),
                                          vector_space(3)))
    m.tensor(a, b, 3)
    assert all(len(memo) == 0 for memo in m._memos)


def test_cache_toggle_within_one_manager(manager):
    rng = np.random.default_rng(6)
    v = rng.normal(size=16).astype(complex)
    g = rng.normal(size=(16, 16)).astype(complex)
    rv = manager.from_dense(v, vector_space(4))
    rg = manager.from_dense(g, matrix_space(4))
    cached = manager.matvec(rg, rv, 4)
    for memo in manager._memos:
        memo.clear()
    assert manager.matvec(rg, rv, 4) == cached


def _matvec_dense(seed):
    m = QuiddManager()
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(16, 16)).astype(complex)
    v = rng.normal(size=16).astype(complex)
    r = m.matvec(m.from_dense(g, matrix_space(4)),
                 m.from_dense(v, vector_space(4)), 4)
    return m.to_dense(r, vector_space(4))


def test_tiny_cache_limit_preserves_results(monkeypatch):
    big = _matvec_dense(7)
    monkeypatch.setattr(quidd, "CACHE_LIMIT", 8)    # forces constant eviction
    tiny = _matvec_dense(7)
    assert np.max(np.abs(big - tiny)) == 0


def test_every_computed_table_respects_cache_limit(monkeypatch):
    monkeypatch.setattr(quidd, "CACHE_LIMIT", 8)
    m = QuiddManager()
    rng = np.random.default_rng(8)
    a = m.from_dense(rng.normal(size=(8, 8)).astype(complex), matrix_space(3))
    b = m.from_dense(rng.normal(size=(8, 8)).astype(complex), matrix_space(3))
    u = m.from_dense(rng.normal(size=8).astype(complex), vector_space(3))
    v = m.from_dense(rng.normal(size=8).astype(complex), vector_space(3))
    m.matvec(m.matmat(a, b, 3), u, 3)
    m.matvec(m.terminal(0.5), u, 3)
    m.matvec(a, m.from_dense(np.repeat([1.0, 2.0], 4), vector_space(3)), 3)
    m.inner_product(u, m.apply("mul", u, v), 3)
    m.tensor(a, b, 3)
    assert all(0 < len(memo) <= 8 for memo in m._memos)


# ---------------------------------------------------------------------------
# dead-node collection


def _random_vector(m, rng, k):
    """A vector diagram with few distinct amplitudes, so it shares nodes."""
    return m.from_dense(rng.integers(-2, 3, size=1 << k).astype(complex),
                        vector_space(k))


def test_collect_keeps_roots_and_refs_below_floor():
    m = QuiddManager()
    rng = np.random.default_rng(11)
    k = 5
    old = _random_vector(m, rng, k)
    old_dump = m.dump(old)
    floor = m.size
    # Garbage and roots interleaved above the floor, sharing structure.
    roots = []
    for _ in range(6):
        x = _random_vector(m, rng, k)
        m.apply("add", x, old)
        roots.append(m.apply("mul", x, _random_vector(m, rng, k)))
    roots.append(m.terminal(0.25))
    dense_before = [m.to_dense(r, vector_space(k)) for r in roots]
    created = m.nodes_created
    size = m.size

    new_floor, moved = m.collect(floor, tuple(roots))

    assert m.size < size
    assert m.nodes_created == created      # a running total, not the size
    assert floor <= new_floor <= m.size
    assert m.dump(old) == old_dump
    for r, want in zip(moved, dense_before):
        assert np.array_equal(m.to_dense(r, vector_space(k)), want)
        # Canonicity: rebuilding the contents finds the renumbered node.
        assert m.from_dense(want, vector_space(k)) == r
        assert_well_formed(m, r)


def test_frequently_collected_run_leaves_a_well_formed_state(monkeypatch):
    monkeypatch.setattr(grover, "COLLECT_EVERY", 64)
    m = QuiddManager()
    k = 10
    rec = grover.run(m, oracle.compile_marked_set(m, k, [3, 700]),
                     grover.GroverParams(k=k))
    assert m.nodes_created > m.size      # collections did free nodes
    assert_well_formed(m, rec.final_state)


def test_collect_keeps_terminals_below_the_raised_floor():
    m = QuiddManager()
    floor = m.size
    one = m.terminal(1)
    half = m.terminal(0.5 + 1e-16)          # the cell's first representative
    m.node(0, one, half)                    # dead
    live = m.node(2, half, one)
    new_floor, (live,) = m.collect(floor, (live,))
    assert (new_floor, m.size) == (floor + 2, floor + 3)
    one, half = m.terminal(1), m.terminal(0.5)
    assert one < new_floor and half < new_floor
    assert m.value(half) == 0.5 + 1e-16
    assert m.dump(live).splitlines()[-1] == f"{live} 2 {half} {one}"
    # The freed node's key is gone from the unique table: re-interning
    # it makes a new node at the top of the store.
    assert m.node(0, one, half) == m.size - 1 == live + 1


def test_collect_empties_computed_tables_and_stays_consistent():
    m = QuiddManager()
    rng = np.random.default_rng(12)
    g = m.from_dense(rng.normal(size=(8, 8)).astype(complex), matrix_space(3))
    floor = m.size
    v = _random_vector(m, rng, 3)
    w = m.matvec(g, v, 3)
    m.matvec(g, _random_vector(m, rng, 3), 3)
    want = m.to_dense(w, vector_space(3))
    floor, (v, w) = m.collect(floor, (v, w))
    assert not any(m._memos)
    assert m.matvec(g, v, 3) == w
    assert np.array_equal(m.to_dense(w, vector_space(3)), want)


# Each case reaches one recursive builder or walker, and nothing else that
# could hold the manager in a reference cycle.
@pytest.mark.parametrize("build", [
    lambda m: m.from_dense(np.arange(8.0), vector_space(3)),
    lambda m: m.to_dense(m.node(0, m.terminal(0), m.terminal(1)),
                         vector_space(2)),
    lambda m: gates.diffusion(m, 3),
    lambda m: oracle.compile_marked_set(m, 5, [3, 17]),
    lambda m: oracle.any_marked_index(
        m, oracle.compile_cnf(m, CnfFormula(3, ((1, -2), (3,))))),
], ids=["from_dense", "to_dense", "diffusion", "compile_marked_set",
        "any_marked_index"])
def test_dropped_manager_is_freed_without_cycle_collector(build):
    gc.collect()
    gc.disable()
    try:
        m = QuiddManager()
        build(m)
        ref = weakref.ref(m)
        del m
        assert ref() is None
        assert gc.collect() == 0        # and no other cycle was left
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# dump


def test_dump_lists_all_nodes(manager):
    v = manager.from_dense(np.array([1, 1, 1, -1], dtype=complex), vector_space(2))
    text = manager.dump(v)
    lines = text.strip().splitlines()
    c = manager.count_nodes(v)
    assert len(lines) == c.internal + c.terminal
    terminal_lines = [ln for ln in lines if ln.split()[1] == "T"]
    assert len(terminal_lines) == c.terminal
    for ln in terminal_lines:
        parts = ln.split()
        assert len(parts) == 4
        float(parts[2]), float(parts[3])
    for ln in lines:
        if ln.split()[1] != "T":
            ident, var, lo, hi = (int(p) for p in ln.split())
            assert lo != hi
