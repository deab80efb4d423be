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
    QuiddError,
    QuiddManager,
    SpaceMismatchError,
    VariableOrderError,
)

from dense_ref import (SizeCapError, diffusion_matrix, from_dense,
                       hadamard_matrix, matrix_space, to_dense, vector_space)

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
# apply


def test_apply_add_constants(manager):
    r = manager.apply("add", manager.terminal(0.5), manager.terminal(0.25))
    assert r == manager.terminal(0.75)
    assert manager.is_terminal(r)


def test_apply_mul_by_one_is_reference_neutral(manager):
    v = from_dense(manager, np.array([1, 2, 3, 4], dtype=complex), vector_space(2))
    assert manager.apply("mul", v, manager.terminal(1.0)) == v
    assert manager.apply("mul", manager.terminal(1.0), v) == v


def test_apply_add_zero_is_reference_neutral(manager):
    v = from_dense(manager, np.array([1, 2, 3, 4], dtype=complex), vector_space(2))
    assert manager.apply("add", v, manager.terminal(0.0)) == v


def test_apply_mul_by_zero_annihilates(manager):
    v = from_dense(manager, np.array([1, 2, 3, 4], dtype=complex), vector_space(2))
    assert manager.apply("mul", v, manager.terminal(0.0)) == manager.terminal(0.0)


def test_apply_rejects_unknown_op(manager):
    t = manager.terminal(1.0)
    with pytest.raises(ValueError):
        manager.apply("sub", t, t)


def test_apply_rejects_mixed_spaces(manager):
    v = from_dense(manager, np.array([1, 0], dtype=complex), vector_space(1))
    g = from_dense(manager, np.eye(2, dtype=complex), matrix_space(1))
    with pytest.raises(SpaceMismatchError):
        manager.apply("add", v, g)


@given(a=dense_vectors(3), b=dense_vectors(3))
def test_apply_matches_dense_elementwise(a, b):
    m = QuiddManager()
    ra = from_dense(m, a, vector_space(3))
    rb = from_dense(m, b, vector_space(3))
    got_add = to_dense(m, m.apply("add", ra, rb), vector_space(3))
    got_mul = to_dense(m, m.apply("mul", ra, rb), vector_space(3))
    assert np.max(np.abs(got_add - (a + b))) < 1e-12
    assert np.max(np.abs(got_mul - a * b)) < 1e-12


@pytest.mark.parametrize("op", ["add", "mul"])
@given(c=amplitudes, x=dense_vectors(3))
@example(c=0j, x=np.arange(8, dtype=complex))
@example(c=1 + 0j, x=np.arange(8, dtype=complex))
def test_apply_with_a_terminal_operand_matches_dense(op, c, x):
    m = QuiddManager()
    rx = from_dense(m, x, vector_space(3))
    rc = m.terminal(c)
    # apply combines with the grid cell's representative, one Python
    # complex at a time (numpy's vector multiply may round differently).
    cv = m.value(rc)
    dense = [cv + complex(v) if op == "add" else cv * complex(v) for v in x]
    want = from_dense(m, dense, vector_space(3))
    assert m.apply(op, rc, rx) == want
    assert m.apply(op, rx, rc) == want


def test_scalar_mul_identity_and_annihilator(manager):
    v = from_dense(manager, np.array([-0.5, 0.5], dtype=complex), vector_space(1))
    assert manager.apply("mul", manager.terminal(1.0), v) == v
    assert manager.apply("mul", manager.terminal(0.0), v) == \
        manager.terminal(0.0)
    doubled = to_dense(manager, manager.apply("mul", manager.terminal(2.0), v),
                       vector_space(1))
    assert np.array_equal(doubled, np.array([-1.0, 1.0], dtype=complex))


def test_scalar_mul_rejects_non_finite(manager):
    # A non-finite scale never becomes a terminal, and a product too
    # large for the terminal grid is rejected where it would be interned.
    with pytest.raises(InvalidAmplitudeError):
        manager.apply("mul", manager.terminal(float("nan")),
                      manager.terminal(1.0))
    v = from_dense(manager, np.array([1e150, -1e150], dtype=complex),
                   vector_space(1))
    with pytest.raises(InvalidAmplitudeError):
        manager.apply("mul", manager.terminal(1e150), v)


# ---------------------------------------------------------------------------
# matvec / inner product


def test_matvec_identity_is_reference_neutral(manager):
    v = from_dense(manager, np.arange(8, dtype=complex), vector_space(3))
    i3 = from_dense(manager, np.eye(8, dtype=complex), matrix_space(3))
    assert manager.matvec(i3, v, 3) == v


def test_matvec_hadamard_on_basis(manager):
    h = from_dense(
        manager, np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
        matrix_space(1))
    zero = from_dense(manager, np.array([1, 0], dtype=complex), vector_space(1))
    got = to_dense(manager, manager.matvec(h, zero, 1), vector_space(1))
    s = 1 / math.sqrt(2)
    assert np.max(np.abs(got - np.array([s, s]))) < 1e-12


@given(g=dense_matrices(3), v=dense_vectors(3))
def test_matvec_matches_dense(g, v):
    m = QuiddManager()
    rg = from_dense(m, g, matrix_space(3))
    rv = from_dense(m, v, vector_space(3))
    got = to_dense(m, m.matvec(rg, rv, 3), vector_space(3))
    assert np.max(np.abs(got - g @ v)) < 1e-12


def test_matvec_handles_constant_blocks_exactly(manager):
    # Constant sub-blocks take the summed fast path; pin it against dense.
    k = 4
    rng = np.random.default_rng(9)
    g = np.full((16, 16), 0.25, dtype=complex)
    g[2:6, 8:12] = rng.normal(size=(4, 4))
    v = np.full(16, 0.5, dtype=complex)
    v[3:11] = rng.normal(size=8)
    rg = from_dense(manager, g, matrix_space(k))
    rv = from_dense(manager, v, vector_space(k))
    got = to_dense(manager, manager.matvec(rg, rv, k), vector_space(k))
    assert np.max(np.abs(got - g @ v)) < 1e-12


def test_matvec_rejects_swapped_operands(manager):
    v = from_dense(manager, np.arange(4, dtype=complex), vector_space(2))
    g = from_dense(manager, np.diag([1, 2, 3, 4]).astype(complex), matrix_space(2))
    with pytest.raises(SpaceMismatchError):
        manager.matvec(v, g, 2)


def test_matvec_rejects_oversized_vector(manager):
    v = from_dense(manager, np.arange(8, dtype=complex), vector_space(3))
    g = from_dense(manager, np.eye(2, dtype=complex), matrix_space(1))
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
        from_dense(m, [[1, 0], [0, 0]], matrix_space(1)),
        from_dense(m, DEEP2, vector_space(2)), 1),
    "matvec-gate-deep-under-zero-vector": lambda m: m.matvec(
        from_dense(m, [[1, 1, 1, 2], [1, 1, 3, 4]] * 2, matrix_space(2)),
        from_dense(m, [1, 0], vector_space(1)), 1),
    "matvec-phase-deeper-than-k": lambda m: m.matvec(
        from_dense(m, [[1, 0], [0, 1]], matrix_space(1)),
        from_dense(m, [1, 2], vector_space(1)), 1,
        from_dense(m, DEEP2, vector_space(2))),
    "matvec-phase-uses-column-variables": lambda m: m.matvec(
        from_dense(m, [[1, 0], [0, 1]], matrix_space(1)),
        from_dense(m, [1, 2], vector_space(1)), 1,
        from_dense(m, [[1, 1], [2, 3]], matrix_space(1))),
    "matvec-phase-deep-under-zero-gate-block": lambda m: m.matvec(
        from_dense(m, [[1, 0], [0, 0]], matrix_space(1)),
        from_dense(m, [1, 2], vector_space(1)), 1,
        from_dense(m, DEEP2, vector_space(2))),
    "inner_product-deep-under-zero-operand": lambda m: m.inner_product(
        from_dense(m, [1, 0], vector_space(1)),
        from_dense(m, DEEP2, vector_space(2)), 1),
    "inner_product-operand-deep-under-zero-mask": lambda m: m.inner_product(
        from_dense(m, DEEP2, vector_space(2)),
        from_dense(m, DEEP2, vector_space(2)), 1,
        from_dense(m, [1, 0], vector_space(1))),
    "inner_product-mask-deep-under-zero-operand": lambda m: m.inner_product(
        from_dense(m, [1, 0], vector_space(1)),
        from_dense(m, [1, 0], vector_space(1)), 1,
        from_dense(m, [1, 1, 0, 1], vector_space(2))),
    "apply-column-variable-under-zero-operand": lambda m: m.apply(
        "mul", from_dense(m, [0, 1], vector_space(1)),
        from_dense(m, [[1, 2], [3, 3]], matrix_space(1))),
}


@pytest.mark.parametrize("call", EXACT_SPACE_CASES.values(),
                         ids=EXACT_SPACE_CASES.keys())
def test_space_checks_read_parts_the_kernels_skip(manager, call):
    with pytest.raises(SpaceMismatchError):
        call(manager)


def test_inner_product_basics(manager):
    zero = from_dense(manager, np.array([1, 0], dtype=complex), vector_space(1))
    one = from_dense(manager, np.array([0, 1], dtype=complex), vector_space(1))
    assert manager.inner_product(zero, one, 1) == 0
    uniform = from_dense(manager, np.full(8, 1 / math.sqrt(8), dtype=complex),
                         vector_space(3))
    assert abs(manager.inner_product(uniform, uniform, 3) - 1) < 1e-9


@given(u=dense_vectors(3), v=dense_vectors(3))
def test_inner_product_matches_vdot(u, v):
    m = QuiddManager()
    ru = from_dense(m, u, vector_space(3))
    rv = from_dense(m, v, vector_space(3))
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
    ru, rv, rmask = (from_dense(m, np.array(x, dtype=complex), space)
                     for x in (u, v, mask))
    got = m.inner_product(rv, rv, k, rmask)[0]
    # The masked vector is built in a manager of its own, so no table
    # entry of the masked walk can reach the reference.
    ref = QuiddManager()
    w = ref.apply("mul", from_dense(ref, np.array(mask, dtype=complex), space),
                  from_dense(ref, np.array(v, dtype=complex), space))
    assert got == ref.inner_product(w, w, k)
    want = np.vdot(np.array(u), np.array(mask) * np.array(v))
    assert abs(m.inner_product(ru, rv, k, rmask)[0] - want) < 1e-12


@given(masked_vectors())
def test_masked_inner_product_returns_the_full_sum_bit_for_bit(case):
    k, mask, u, v = case
    space = vector_space(k)
    # One manager per side, so no table entry is shared between them.
    m, ref = QuiddManager(), QuiddManager()
    ru, rv, rmask = (from_dense(m, np.array(x, dtype=complex), space)
                     for x in (u, v, mask))
    full = ref.inner_product(from_dense(ref, np.array(u, dtype=complex), space),
                             from_dense(ref, np.array(v, dtype=complex), space),
                             k)
    assert m.inner_product(ru, rv, k, rmask)[1] == full


def test_masked_inner_product_rejects_a_mask_that_is_not_zero_one(manager):
    v = from_dense(manager, np.array([0.5, 0.5j]), vector_space(1))
    mask = from_dense(manager, np.array([1, 0.5]), vector_space(1))
    with pytest.raises(MaskError):
        manager.inner_product(v, v, 1, mask)


def test_masked_inner_product_reads_the_mask_under_a_zero_operand(manager):
    # The bad mask terminal lies under the operand's zero entry, where the
    # walk cuts short; the mask is read first, so it still raises.
    v = from_dense(manager, np.array([0.5, 0]), vector_space(1))
    mask = from_dense(manager, np.array([1, 0.5]), vector_space(1))
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
    return from_dense(m, gate, matrix_space(k))


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
@example((2, "hadamard", None, [0.5] * 4, [1] * 4))  # and no effective phase
@example((1, "blocks", np.array([[0, 0.5], [0, 0]]), [1, 2], [0, -1]))
def test_matvec_with_phase_matches_matvec_of_the_built_product(case):
    k, kind, gate, vec, phase = case
    space = vector_space(k)
    # One manager per side, so no table entry or terminal made by one
    # side can reach the other.
    fm, rm = QuiddManager(), QuiddManager()
    (fg, fv, fp), (rg, rv, rp) = (
        (build_gate(m, k, kind, gate),
         *(from_dense(m, np.array(x, dtype=complex), space) for x in (vec, phase)))
        for m in (fm, rm))
    got_ref = fm.matvec(fg, fv, k, phase=fp)
    product = rm.apply("mul", rp, rv)
    want_ref = rm.matvec(rg, product, k)
    got, want = to_dense(fm, got_ref, space), to_dense(rm, want_ref, space)
    # Both sides share the kernel, so the dense product checks it.
    dense_gate = {"diffusion": diffusion_matrix,
                  "hadamard": hadamard_matrix}.get(kind, lambda _: gate)(k)
    assert np.allclose(got, dense_gate @ (np.array(phase) * np.array(vec)),
                       rtol=1e-9, atol=1e-9)
    # The deferred result never duplicates a node the manager holds.
    assert from_dense(fm, got, space) == got_ref
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
    rv = from_dense(m, np.array(vec, dtype=complex), space)
    ones = from_dense(m, np.ones(1 << k), space)
    assert m.matvec(rg, rv, k, phase=ones) == m.matvec(rg, rv, k)


class DeferWatchManager(QuiddManager):
    """Keeps the top-level (ref, offset) of the last matvec walk and
    counts the deferred nodes the walk itself builds with no offset,
    which it does only to sum them."""

    def __init__(self):
        super().__init__()
        self.top = None
        self.walking = self.summed = 0

    def _matvec_rec(self, m, g, w, p, k):
        self.walking += 1
        try:
            r = super()._matvec_rec(m, g, w, p, k)
        finally:
            self.walking -= 1
        if m == 0:
            self.top = r[:2]
        return r

    def _build(self, ref, t):
        self.summed += self.walking > 0 and ref < 0 and t is None
        return super()._build(ref, t)


FOLD = np.array([[0.1, -0.3], [1, 2]])


@pytest.mark.parametrize("case, k, gate, vec", [
    ("zero offset", 3, np.diag(np.arange(1.0, 9.0)), [0, 0, 0, 1, 0, 2, 0, 0]),
    # The first row sums to 0.1 * 3 - 0.3 * 1 = 5.6e-17.
    ("offset in the zero cell", 2, np.kron(FOLD, np.diag([1, 2])),
     [3, 5, 1, 7]),
    ("summed sides", 3, "hadamard", np.arange(8.0)),
])
def test_matvec_builds_the_deferred_result_once(case, k, gate, vec):
    m = DeferWatchManager()
    if isinstance(gate, str):
        rg = build_gate(m, k, gate, None)
        gate = to_dense(m, rg, matrix_space(k))
    else:
        rg = from_dense(m, gate, matrix_space(k))
    space = vector_space(k)
    rv = from_dense(m, np.array(vec, dtype=complex), space)
    got = m.matvec(rg, rv, k)
    ref, off = m.top
    if case == "zero offset":
        assert ref < 0 and off == 0
    elif case == "offset in the zero cell":
        assert ref < 0 and 0 < abs(off) < GRID / 2
    else:
        assert m.summed > 0
    assert not m.is_terminal(got)
    dense = to_dense(m, got, space)
    assert from_dense(m, dense, space) == got
    assert np.max(np.abs(dense - gate @ np.array(vec, dtype=complex))) < 1e-12


class SumWatchManager(QuiddManager):
    """Counts the input-sum walks that start on a column side of the top
    level (level 1): the calls of a non-zero constant block with a
    non-zero input."""

    def __init__(self):
        super().__init__()
        self.top_sums = 0

    def _matvec_rec(self, m, g, w, p, k):
        self.top_sums += (m == 1 and self._value[g] not in (None, 0)
                          and self._value[w] != 0)
        return super()._matvec_rec(m, g, w, p, k)


# Top-level quadrants [[A, B], [C, D]] of an 8 x 8 gate: "I" internal,
# "Z" zero, a number a constant.  A and C lie on column side 0, B and D
# on side 1.  Only a side with no internal block is walked for its sum.
@pytest.mark.parametrize("quadrants, sums", [
    pytest.param(((0.5, -0.25), ("I", "I")), 0, id="constant above internal"),
    pytest.param((("I", "I"), (0.3j, 0.5)), 0, id="constant below internal"),
    pytest.param(((0.5, "I"), (-0.25, "I")), 1, id="both constant"),
    pytest.param((("Z", 0.5), (-0.25, "Z")), 2, id="zero beside constant"),
    pytest.param((("Z", "I"), ("I", "Z")), 0, id="zero beside internal"),
])
@pytest.mark.parametrize("phased", [False, True], ids=["plain", "phased"])
def test_matvec_constant_block_arrangements_match_dense(quadrants, sums,
                                                        phased):
    k, space = 3, vector_space(3)
    rng = np.random.default_rng(25)

    def quadrant(q):
        if q == "I":
            return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        return np.full((4, 4), 0 if q == "Z" else q, dtype=complex)

    gate = np.block([[quadrant(q) for q in row] for row in quadrants])
    vec = rng.normal(size=8) + 0.5j
    # A phase that splits below the top level, so both sides carry one.
    phase = np.array([1, -1, 1, 1, -1, 1, 1, 1] if phased else [1] * 8,
                     dtype=complex)
    m = SumWatchManager()
    rg = from_dense(m, gate, matrix_space(k))
    rv = from_dense(m, vec, space)
    got = m.matvec(rg, rv, k, from_dense(m, phase, space) if phased else None)
    assert m.top_sums == sums
    dense = to_dense(m, got, space)
    assert from_dense(m, dense, space) == got
    assert np.max(np.abs(dense - gate @ (phase * vec))) < 1e-12


class DeepConstantWatchManager(QuiddManager):
    """Counts the walk calls below the top level's quadrants (level 2 and
    deeper) of a non-zero constant gate block over an internal input."""

    def __init__(self):
        super().__init__()
        self.deep_constant_calls = 0

    def _matvec_rec(self, m, g, w, p, k):
        self.deep_constant_calls += (m >= 2 and self._value[g] not in (None, 0)
                                     and self._value[w] is None)
        return super()._matvec_rec(m, g, w, p, k)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("phased", [False, True], ids=["plain", "phased"])
def test_matvec_constant_blocks_below_the_top_level_match_dense(k, phased):
    # Each top-level quadrant is internal, and its own quadrants hold the
    # arrangements of the top-level test one level down: two constants
    # on one column, zero beside constant, constant above and below an
    # internal block.
    n = 1 << k
    h, q = n // 2, n // 4
    rng = np.random.default_rng(29 + k)
    gate = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    gate[:q, :q], gate[q:h, :q] = 0.5, -0.25
    gate[:q, h:h + q], gate[:q, h + q:] = 0, 0.3j
    gate[q:h, h:h + q], gate[q:h, h + q:] = 0.75, 0
    gate[h:h + q, :q] = 1.5
    gate[h + q:, h + q:] = -0.5
    vec = rng.normal(size=n) + 0.5j
    vec[0] = 0          # a zero leaf under the constant column's input
    phase = (rng.choice([1, -1], size=n) if phased else np.ones(n)).astype(
        complex)
    space = vector_space(k)
    m = DeepConstantWatchManager()
    rg = from_dense(m, gate, matrix_space(k))
    rv = from_dense(m, vec, space)
    got = m.matvec(rg, rv, k, from_dense(m, phase, space) if phased else None)
    assert m.deep_constant_calls > 0
    dense = to_dense(m, got, space)
    assert from_dense(m, dense, space) == got
    assert np.max(np.abs(dense - gate @ (phase * vec))) < 1e-12


# ---------------------------------------------------------------------------
# entries, counting, round trips


def test_entry_at_constant_diagram(manager):
    c = manager.terminal(0.125)
    assert manager.entry_at(c, 5, k=3) == 0.125
    assert manager.entry_at(c, 0b011, k=3) == 0.125


def test_entry_at_uniform_state(manager):
    u = from_dense(manager, np.full(32, 1 / math.sqrt(32), dtype=complex),
                   vector_space(5))
    assert abs(manager.entry_at(u, 0b01101, k=5) - 1 / math.sqrt(32)) < 1e-12


def test_entry_at_follows_skipped_levels(manager):
    # Qubit 0 is skipped at the root, qubit 2 below it: entry x depends on
    # bit 1 (value 2) only.
    want = np.array([1, 1, 2, 2, 1, 1, 2, 2], dtype=complex)
    v = from_dense(manager, want, vector_space(3))
    assert manager.count_nodes(v).internal == 1
    for idx in range(8):
        assert manager.entry_at(v, idx, k=3) == want[idx]


def test_entry_at_recovers_every_dense_entry(manager):
    rng = np.random.default_rng(3)
    v = rng.normal(size=32) + 1j * rng.normal(size=32)
    rv = from_dense(manager, v, vector_space(5))
    for idx in range(32):
        assert abs(manager.entry_at(rv, idx, k=5) - v[idx]) < 1e-12


def test_entry_at_rejects_bad_index(manager):
    v = from_dense(manager, np.arange(4, dtype=complex), vector_space(2))
    with pytest.raises(SpaceMismatchError):
        manager.entry_at(v, 0, k=1)     # k too small for the diagram
    with pytest.raises(IndexError):
        manager.entry_at(v, 4, k=2)     # out of range


def test_entry_at_rejects_a_diagram_deeper_than_k_on_every_index(manager):
    # The paths to x = 0..2 end on a terminal before the deep node; the
    # vector still does not fit two qubits, as inner_product says.
    v = from_dense(manager, [1, 1, 1, 1, 1, 1, 1, 2], vector_space(3))
    with pytest.raises(SpaceMismatchError):
        manager.inner_product(v, v, 2)
    for x in range(4):
        with pytest.raises(SpaceMismatchError):
            manager.entry_at(v, x, k=2)


def test_count_nodes_terminal(manager):
    c = manager.count_nodes(manager.terminal(1.0))
    assert (c.internal, c.terminal) == (0, 1)


def test_count_nodes_deduplicates_roots(manager):
    v = from_dense(manager, np.arange(8, dtype=complex), vector_space(3))
    assert manager.count_nodes(v, v) == manager.count_nodes(v)


def test_count_nodes_uniform_state_is_single_terminal(manager):
    u = from_dense(manager, np.full(16, 0.25, dtype=complex), vector_space(4))
    c = manager.count_nodes(u)
    assert (c.internal, c.terminal) == (0, 1)


def test_survey_span_reads_through_excluded_nodes(manager):
    # Each vector's misfit part lies under a node the walk stops at, yet
    # the span it enters still makes the space check raise.
    m = manager
    five = m.terminal(5)
    deep = m.node(4, m.terminal(1), m.terminal(2))     # qubit 2 of 2
    column = m.node(1, m.terminal(1), m.terminal(3))   # a column variable
    for part, span in ((deep, (4, False)), (column, (1, True))):
        v = m.node(0, part, five)
        assert m.survey(v, m.reachable(part)) == (1, [five], span)
        assert m._span_memo[v] == span
        with pytest.raises(SpaceMismatchError):
            m.entry_at(v, 0, 2)


def test_subtree_sums_scale_skipped_levels(manager):
    # [1, 1, 2, 3] twice: qubit 0 is skipped above the root and qubit 2
    # below its low child.
    v = from_dense(manager, np.array([1, 1, 2, 3] * 2, dtype=complex),
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
    c = m.count_nodes(from_dense(m, v, vector_space(4)))
    assert c.internal + c.terminal <= 1 << 5


def test_from_dense_basis_state(manager):
    r = from_dense(manager, np.array([1, 0, 0, 0], dtype=complex), vector_space(2))
    assert manager.entry_at(r, 0, k=2) == 1
    assert_well_formed(manager, r)


@given(v=dense_vectors(3))
def test_round_trip_is_canonical(v):
    m = QuiddManager()
    r1 = from_dense(m, v, vector_space(3))
    r2 = from_dense(m, to_dense(m, r1, vector_space(3)), vector_space(3))
    assert r1 == r2
    assert_well_formed(m, r1)


def test_canonicity_across_construction_routes(manager):
    # from_dense of a Kronecker product must meet the elementwise product
    # of its two factors, each constant on the other's qubits.
    a = np.array([0.5, -0.5], dtype=complex)
    b = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    direct = from_dense(manager, np.kron(a, b), vector_space(3))
    composed = manager.apply(
        "mul", from_dense(manager, np.repeat(a, 4), vector_space(3)),
        from_dense(manager, np.tile(b, 2), vector_space(3)))
    assert direct == composed


def test_to_dense_respects_vector_cap():
    m = QuiddManager()
    c = m.terminal(1.0)
    with pytest.raises(SizeCapError):
        to_dense(m, c, vector_space(21))


def test_to_dense_respects_matrix_cap():
    m = QuiddManager()
    c = m.terminal(1.0)
    with pytest.raises(SizeCapError):
        to_dense(m, c, matrix_space(13))


def test_to_dense_rejects_a_diagram_outside_the_space(manager):
    v = from_dense(manager, np.arange(8.0), vector_space(3))
    with pytest.raises(SpaceMismatchError):
        to_dense(manager, v, vector_space(2))
    g = from_dense(manager, [[1, 2], [3, 4]], matrix_space(1))
    with pytest.raises(SpaceMismatchError):
        to_dense(manager, g, vector_space(1))
    with pytest.raises(SpaceMismatchError):
        to_dense(manager, from_dense(manager, np.eye(4), matrix_space(2)),
                 matrix_space(1))


def test_matrix_round_trip(manager):
    rng = np.random.default_rng(11)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rg = from_dense(manager, g, matrix_space(3))
    assert np.max(np.abs(to_dense(manager, rg, matrix_space(3)) - g)) < 1e-12
    assert rg == from_dense(manager, g, matrix_space(3))


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
        rv = from_dense(m, v, vector_space(4))
        rg = from_dense(m, g, matrix_space(4))
        outs.append(to_dense(m, m.matvec(rg, rv, 4), vector_space(4)))
    assert np.max(np.abs(outs[0] - outs[1])) == 0


def test_cache_disabled_enters_nothing():
    m = NoMemoManager()
    rng = np.random.default_rng(9)
    a = from_dense(m, rng.normal(size=(8, 8)).astype(complex), matrix_space(3))
    b = from_dense(m, rng.normal(size=(8, 8)).astype(complex), matrix_space(3))
    u = from_dense(m, rng.normal(size=8).astype(complex), vector_space(3))
    m.matvec(a, u, 3)
    m.matvec(m.terminal(0.5), u, 3)
    m.matvec(b, from_dense(m, np.repeat([1.0, 2.0], 4), vector_space(3)), 3)
    m.inner_product(u, m.apply("mul", u, u), 3)
    m.inner_product(u, u, 3, from_dense(m, np.repeat([0.0, 1.0], 4),
                                        vector_space(3)))
    assert all(len(memo) == 0 for memo in m._memos)


def test_cache_toggle_within_one_manager(manager):
    rng = np.random.default_rng(6)
    v = rng.normal(size=16).astype(complex)
    g = rng.normal(size=(16, 16)).astype(complex)
    rv = from_dense(manager, v, vector_space(4))
    rg = from_dense(manager, g, matrix_space(4))
    cached = manager.matvec(rg, rv, 4)
    for memo in manager._memos:
        memo.clear()
    assert manager.matvec(rg, rv, 4) == cached


def _matvec_dense(seed):
    m = QuiddManager()
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(16, 16)).astype(complex)
    v = rng.normal(size=16).astype(complex)
    r = m.matvec(from_dense(m, g, matrix_space(4)),
                 from_dense(m, v, vector_space(4)), 4)
    return to_dense(m, r, vector_space(4))


def test_tiny_cache_limit_preserves_results(monkeypatch):
    big = _matvec_dense(7)
    monkeypatch.setattr(quidd, "CACHE_LIMIT", 8)    # forces constant eviction
    tiny = _matvec_dense(7)
    assert np.max(np.abs(big - tiny)) == 0


def test_every_computed_table_respects_cache_limit(monkeypatch):
    monkeypatch.setattr(quidd, "CACHE_LIMIT", 8)
    m = QuiddManager()
    rng = np.random.default_rng(8)
    # matvec empties the matvec, add and multiply tables when it starts,
    # so the last product must fill the first two (apply refills the
    # multiply table after it).  a's right column is two constant
    # quadrants; the walk splits each like any other block, as its own
    # four quadrants, so their calls enter matvec entries too.
    dense_a = rng.normal(size=(8, 8)).astype(complex)
    dense_a[:4, 4:] = 0.5
    dense_a[4:, 4:] = -0.25
    a = from_dense(m, dense_a, matrix_space(3))
    b = from_dense(m, rng.normal(size=(8, 8)).astype(complex), matrix_space(3))
    u = from_dense(m, rng.normal(size=8).astype(complex), vector_space(3))
    v = from_dense(m, rng.normal(size=8).astype(complex), vector_space(3))
    m.matvec(m.terminal(0.5), u, 3)
    m.matvec(b, from_dense(m, np.repeat([1.0, 2.0], 4), vector_space(3)), 3)
    m.matvec(a, u, 3)
    m.inner_product(u, m.apply("mul", u, v), 3)
    assert all(0 < len(memo) <= 8 for memo in m._memos)


# ---------------------------------------------------------------------------
# dead-node collection


def _random_vector(m, rng, k):
    """A vector diagram with few distinct amplitudes, so it shares nodes."""
    return from_dense(m, rng.integers(-2, 3, size=1 << k).astype(complex),
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
    dense_before = [to_dense(m, r, vector_space(k)) for r in roots]
    created = m.nodes_created
    size = m.size

    moved = m.collect(floor, tuple(roots))

    assert m.size < size
    assert m.nodes_created == created      # a running total, not the size
    assert m.dump(old) == old_dump
    for r, want in zip(moved, dense_before):
        assert np.array_equal(to_dense(m, r, vector_space(k)), want)
        # Canonicity: rebuilding the contents finds the renumbered node.
        assert from_dense(m, want, vector_space(k)) == r
        assert_well_formed(m, r)


def test_frequently_collected_run_leaves_a_well_formed_state(monkeypatch):
    monkeypatch.setattr(grover, "COLLECT_EVERY", 64)
    m = QuiddManager()
    k = 10
    rec = grover.run(m, oracle.compile_marked_set(m, k, [3, 700]),
                     grover.GroverParams(k=k))
    assert m.nodes_created > m.size      # collections did free nodes
    assert_well_formed(m, rec.final_state)


def test_collect_frees_swept_terminals_and_keeps_the_floor():
    m = QuiddManager()
    floor = m.size
    m.terminal(0.25)                        # in the table, reached by nothing
    one = m.terminal(1)
    half = m.terminal(0.5 + 1e-16)          # the cell's first representative
    m.node(0, one, m.terminal(1 / 3))       # dead
    live = m.node(2, half, one)
    m.sweep(floor, (half, one))             # drops the 1/4 and 1/3 terminals
    (live,) = m.collect(floor, (live,))
    assert m.size == floor + 3              # one, half, live
    one, half = m.terminal(1), m.terminal(0.5)
    assert m.value(half) == 0.5 + 1e-16
    assert m.dump(live).splitlines()[-1] == f"{live} 2 {half} {one}"
    # The swept quarter and third were freed: each is made anew at the top.
    assert m.terminal(0.25) == m.size - 1 == live + 1
    assert m.terminal(1 / 3) == m.size - 1 == live + 2


def test_sweep_keeps_the_zero_terminal_and_terminals_below_the_floor():
    m = QuiddManager()
    assert (m.size, m.terminal(0), m.value(0)) == (1, 0, 0j)
    below = m.terminal(0.75)
    floor = m.size
    m.terminal(0.25)
    m.sweep(floor, ())
    assert m.terminal(0.75) == below
    assert m.terminal(0.25) == floor + 1    # swept: a new representative
    # Every ref is at or above floor 0, yet the zero is never a candidate.
    m.sweep(0, ())
    assert m.collect(0, ()) == ()
    assert (m.size, m.terminal(0)) == (1, 0)


def test_collect_rejects_a_negative_floor():
    m = QuiddManager()
    n = m.node(0, m.terminal(0.25), m.terminal(1))
    size = m.size
    with pytest.raises(QuiddError):
        m.collect(-1, (n,))
    assert m.size == size
    assert m.collect(0, (n,)) == (n,)


def test_collect_at_or_above_the_store_size_changes_nothing():
    m = QuiddManager()
    rng = np.random.default_rng(14)
    g = from_dense(m, np.kron([[0.5, -1], [-1, 0.5]], rng.normal(size=(4, 4)))
                   .astype(complex), matrix_space(3))
    v = from_dense(m, np.repeat(rng.normal(size=4), 2).astype(complex),
                   vector_space(3))
    roots = (g, v, m.matvec(g, v, 3))
    row_sums, spans = dict(m._rs_memo), dict(m._span_memo)
    assert row_sums and spans
    size, created = m.size, m.nodes_created
    store = m.dump(*range(size))
    for floor in (size, size + 3):
        assert m.collect(floor, roots) == roots
        assert (m.size, m.nodes_created) == (size, created)
        assert m.dump(*range(size)) == store
        assert m._rs_memo == row_sums and m._span_memo == spans


def dense_row_sum(block):
    """The sum every row of a square block shares, or None where the rows
    of the block or of a quadrant, at any depth, differ."""
    if len(block) == 1:
        return block[0, 0]
    h = len(block) // 2
    sums = [dense_row_sum(q) for q in (block[:h, :h], block[:h, h:],
                                       block[h:, :h], block[h:, h:])]
    if any(x is None for x in sums):
        return None
    lo, hi = sums[0] + sums[1], sums[2] + sums[3]
    return lo if abs(lo - hi) < 1e-12 else None


def test_collect_keeps_row_sums_and_spans_and_stays_consistent():
    m = QuiddManager()
    rng = np.random.default_rng(12)
    dense_g = rng.normal(size=(8, 8)).astype(complex)
    # A quadrant whose rows share their sums at every depth, beside
    # random ones whose rows do not.
    a, b, c, d = rng.normal(size=4)
    dense_g[4:, :4] = np.kron([[a, b], [b, a]], [[c, d], [d, c]])
    g = from_dense(m, dense_g, matrix_space(3))
    floor = m.size
    # Equal neighbours give constant segments, so the row-sum table fills.
    v = from_dense(m, np.repeat(rng.normal(size=4), 2).astype(complex),
                   vector_space(3))
    w = m.matvec(g, v, 3)
    u = from_dense(m, np.repeat(rng.normal(size=2), 4).astype(complex),
                   vector_space(3))
    m.matvec(g, u, 3)
    m.inner_product(v, w, 3)
    want = to_dense(m, w, vector_space(3))
    row_sums = dict(m._rs_memo)
    assert set(m._span_memo) > {g}
    span = m._span_memo[g]
    v, w = m.collect(floor, (v, w))
    assert not any((m._add_memo, m._mul_memo, m._mv_memo, m._ip_memo))
    assert m._span_memo == {g: span}
    assert m._rs_memo == row_sums
    assert None in row_sums.values()
    assert any(s is not None for s in row_sums.values())
    for (level, block), s in row_sums.items():
        # The block ignores the variables above its level, so its dense
        # form tiles the whole matrix.
        n = 1 << (3 - level)
        want_sum = dense_row_sum(to_dense(m, block, matrix_space(3))[:n, :n])
        assert (s is None) == (want_sum is None), (level, block)
        if s is not None:
            assert isinstance(s, complex) and abs(s - want_sum) < 1e-12
    assert m.matvec(g, v, 3) == w
    assert np.array_equal(to_dense(m, w, vector_space(3)), want)


def test_kernels_return_the_zero_terminal_after_collect_moves_it():
    m = QuiddManager()
    rng = np.random.default_rng(13)
    k = 2
    dense_g = rng.normal(size=(4, 4)).astype(complex)
    dense_g[:2, 2:] = 0.5               # a constant quadrant, and
    dense_g[2:, :2] = -1.5              # one whose rows sum to a constant
    dense_g[3, 1] = 2.0
    dense_u = rng.normal(size=4).astype(complex)
    g = from_dense(m, dense_g, matrix_space(k))
    u = from_dense(m, dense_u, vector_space(k))
    floor = m.size
    # Garbage above the floor, so the collection frees and moves nodes;
    # the zero terminal is ref 0, below every floor, and stays there.
    from_dense(m, np.arange(1.0, 5.0), vector_space(k))
    dense_v = np.array([0.0, 3.0, 0.0, -2.0], dtype=complex)
    v = from_dense(m, dense_v, vector_space(k))
    dense_x = rng.normal(size=4).astype(complex)
    x = from_dense(m, dense_x, vector_space(k))
    size = m.size
    v, x = m.collect(floor, (v, x))
    assert m.size < size
    zero = m.terminal(0)
    assert zero == 0
    assert m.matvec(g, zero, k) == zero
    assert m.matvec(zero, u, k) == zero
    assert m.apply("mul", zero, u) == zero
    half = m.terminal(0.5)
    for gate, dense_gate in ((g, dense_g), (half, np.full((4, 4), 0.5))):
        for vec, dense_vec in ((u, dense_u), (v, dense_v), (x, dense_x)):
            got = to_dense(m, m.matvec(gate, vec, k), vector_space(k))
            assert np.max(np.abs(got - dense_gate @ dense_vec)) < 1e-12
    assert m.terminal(0) == 0


# Each case reaches one recursive builder or walker, and nothing else that
# could hold the manager in a reference cycle.
@pytest.mark.parametrize("build", [
    lambda m: from_dense(m, np.arange(8.0), vector_space(3)),
    lambda m: to_dense(m, m.node(0, m.terminal(0), m.terminal(1)),
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
    v = from_dense(manager, np.array([1, 1, 1, -1], dtype=complex), vector_space(2))
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
