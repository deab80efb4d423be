"""Reduced ordered algebraic decision diagrams with complex terminals (QuIDDs).

A QuIDD stores a 2^k-entry complex vector, or a 2^k x 2^k matrix, as a
canonical DAG: internal nodes test one bit of the binary index, sinks hold
amplitudes.  Every node is interned in a manager, so structural equality is
reference equality and repeated subarrays are stored exactly once.  A node
is its variable, its two children and, for a sink, its value; nothing else
is stored per node.

Conventions
-----------
* Qubit i of a vector owns decision variable 2*i.  A matrix interleaves
  row and column variables, r_0 < c_0 < r_1 < c_1 < ..., with row variable
  2*i and column variable 2*i + 1 for qubit i.  The interleaving is what
  keeps matrix-vector products cheap on compressed operands.
* The variable order is fixed and shared by all diagrams of a manager.
  The low edge is index bit 0, the high edge bit 1.
* Bit 0 of an index is the most significant, so the position of a path
  in the flat 2^k array equals the integer value of its bit string.
* A node skipped on a path means the function ignores that bit: both
  branches would be equal, and the reduction rule removed the node.
* Terminal values are interned on a 1e-15 grid per component (``GRID``);
  the first value seen in a grid cell is kept verbatim as the cell
  representative, so amplitudes are never rounded, only deduplicated.
* Every entry that takes a qubit count checks that its diagrams fit it
  and raises :class:`SpaceMismatchError` otherwise: a vector may use only
  row variables below 2*k, a matrix only variables below 2*k, and an
  elementwise operation may not pair a diagram that uses column
  variables with one that does not, unless one of them is a constant.
  The checks read the whole diagram, not only the paths a kernel visits,
  so a mis-sized part under a zero block is caught too.

Node lifetime
-------------
Children always precede their parents in the node store, so nodes above
a floor index are never referenced from below it.
:meth:`QuiddManager.collect` frees the nodes above a floor that given
roots do not reach and renumbers the survivors; refs below the floor are
untouched and stay valid, refs above it are valid only as the renumbered
roots it returns.  A terminal leaves the store only after it has left
the terminal table: :meth:`QuiddManager.sweep` drops the terminals a
caller no longer reaches from the table (a cell met again gets a new
representative), and the next collection frees them.  Every other
terminal above the floor survives a collection whether or not a root
reaches it, and no terminal below the floor is ever swept, so a cell's
representative changes only at a sweep and results do not depend on
when collections happen.

Computed tables
---------------
Each operation remembers its results in a computed table.  A table is
emptied when it reaches ``CACHE_LIMIT`` entries.  The tables a product
or an inner product fills last one call: :meth:`QuiddManager.matvec`
empties the matvec, vector-sum, add and multiply tables when it starts,
and :meth:`QuiddManager.inner_product` empties the inner-product table.
In a Grover run every iteration has a new state, so their entries would
be dead by the next call anyway.  The row-sum table (keyed by gate
blocks) and the span table outlive a call.  A collection keeps the
row-sum entries of gates below the floor, renumbering their results,
and the span entries of refs below the floor, and empties the rest.
Results never depend on what a table holds.

A manager and every ref it issued are confined to one thread of control.
Refs from different managers must never be mixed.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import chain

# Sorts after every real decision variable, so terminals never win a
# top-variable comparison.
TERMINAL_VAR = 1 << 30

# Quantization pitch of the terminal grid.  Cells only need to be wide
# enough to absorb round-off between different computation paths that
# should agree (a few ulp for order-one values); wider cells let a snapped
# amplitude perturb the state norm measurably once amplitudes shrink to
# 2^(-k/2) at large k.
GRID = 1e-15

# Entries a computed table may hold before it is emptied.
CACHE_LIMIT = 400_000

_ADD = "add"
_MUL = "mul"


class QuiddError(Exception):
    """Base class for diagram-level failures."""


class InvalidAmplitudeError(QuiddError):
    """NaN or infinite amplitude offered to the terminal table."""


class VariableOrderError(QuiddError):
    """Node construction that would violate the fixed variable order."""


class SpaceMismatchError(QuiddError):
    """Operands drawn from incompatible variable spaces."""


class DiagramDepthError(QuiddError):
    """A diagram too deep for the recursive kernels under the recursion limit."""


class MaskError(QuiddError):
    """A mask diagram with a terminal other than 0 or 1."""


def depth_checked(entry):
    """Raise :class:`DiagramDepthError` where ``entry`` hits the recursion limit.

    The recursive kernels recurse once per decision level, so a diagram
    with about as many levels as ``sys.getrecursionlimit()`` exhausts the
    stack.  The check sits at the public entry only: the kernels keep no
    depth counter, and a ``try`` costs nothing until it catches.  Every
    node and computed-table entry made before the failure is complete,
    so the manager stays usable.
    """
    @functools.wraps(entry)
    def checked(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        except RecursionError:
            raise DiagramDepthError(
                f"{entry.__name__}: diagram too deep for the recursion "
                "limit") from None
    return checked


def _grid_key(z: complex) -> tuple[int, int]:
    """The terminal grid cell of ``z``."""
    return (round(z.real / GRID), round(z.imag / GRID))


NodeCount = namedtuple("NodeCount", "internal terminal")


class QuiddManager:
    """Interning manager owning the unique table, the terminals and one
    computed table per operation.

    Nodes are integer refs into four parallel arrays: variable, low
    child, high child and value (``None`` for internal nodes).
    :meth:`collect` frees unreachable nodes above a floor, terminals
    only once :meth:`sweep` has dropped them from the terminal table;
    ``nodes_created`` counts every node ever interned, freed ones
    included.  Live-set sizes are measured by reachability from explicit
    roots via :meth:`count_nodes` or :meth:`survey`.  The space checks
    derive what they need from the diagram itself (:meth:`_span`),
    through a computed table like any other.  Each computed table is
    emptied once it holds ``CACHE_LIMIT`` entries; those of
    :meth:`matvec` and :meth:`inner_product` are also emptied when the
    call starts, and only the row-sum and span tables outlive a call.
    The zero terminal's ref is kept on the manager for the kernels'
    shortcuts, and :meth:`collect` renews it.  The manager takes no
    settings.
    """

    def __init__(self):
        self._var: list[int] = []
        self._low: list[int] = []
        self._high: list[int] = []
        self._value: list[complex | None] = []
        self._unique: dict[tuple[int, int, int], int] = {}
        self._terminals: dict[tuple[int, int], int] = {}
        # One computed table per operation, each bounded by CACHE_LIMIT.
        self._add_memo: dict = {}
        self._mul_memo: dict = {}
        self._mv_memo: dict = {}
        self._vs_memo: dict = {}
        self._rs_memo: dict = {}
        self._ip_memo: dict = {}
        self._span_memo: dict = {}
        self._memos = (self._add_memo, self._mul_memo, self._mv_memo,
                       self._vs_memo, self._rs_memo, self._ip_memo,
                       self._span_memo)
        self._freed = 0         # nodes released by collect()
        self._zero: int | None = None   # the terminal of cell (0, 0)
        # Nodes the row-sum table's results reach, for sweep(); None
        # once the table has changed since they were taken.
        self._rs_reach: set | None = None

    # ------------------------------------------------------------------
    # construction and inspection

    @property
    def nodes_created(self) -> int:
        """Total nodes ever interned, freed ones included (monotone)."""
        return len(self._var) + self._freed

    @property
    def size(self) -> int:
        """Nodes in the store; every ref issued so far is below it."""
        return len(self._var)

    def terminal(self, value) -> int:
        """Intern an amplitude sink, quantized to the grid for equality."""
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise InvalidAmplitudeError(f"non-finite amplitude: {value!r}")
        return self._term(z)

    def _term(self, z: complex) -> int:
        # Hot-path interner: callers guarantee z is already a complex built
        # from finite inputs, so only overflow needs catching here.
        try:
            key = _grid_key(z)
        except (OverflowError, ValueError):
            raise InvalidAmplitudeError(f"non-finite amplitude: {z!r}") from None
        ref = self._terminals.get(key)
        if ref is None:
            if key == (0, 0):
                # Canonical zero keeps annihilator shortcuts exact.
                ref = self._zero = self._new(TERMINAL_VAR, -1, -1, 0j)
            else:
                ref = self._new(TERMINAL_VAR, -1, -1, z)
            self._terminals[key] = ref
        return ref

    def node(self, var: int, low: int, high: int) -> int:
        """Intern an internal node; collapses to the child when low == high."""
        if not 0 <= var < TERMINAL_VAR:
            raise VariableOrderError(f"variable index out of range: {var}")
        if var >= self._var[low] or var >= self._var[high]:
            raise VariableOrderError(
                f"variable {var} does not precede children "
                f"({self._var[low]}, {self._var[high]})")
        if low == high:
            return low
        key = (var, low, high)
        ref = self._unique.get(key)
        if ref is None:
            ref = self._new(var, low, high, None)
            self._unique[key] = ref
        return ref

    def _new(self, var, low, high, value) -> int:
        ref = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._value.append(value)
        return ref

    def is_terminal(self, ref: int) -> bool:
        return self._value[ref] is not None

    def value(self, ref: int) -> complex:
        v = self._value[ref]
        if v is None:
            raise QuiddError("value() on an internal node")
        return v

    def var(self, ref: int) -> int:
        return self._var[ref]

    def low(self, ref: int) -> int:
        return self._low[ref]

    def high(self, ref: int) -> int:
        return self._high[ref]

    def _remember(self, cache: dict, key, r):
        """Enter ``r`` under ``key`` in a computed table and return it.

        The one eviction rule of every table: a table that holds
        ``CACHE_LIMIT`` entries is emptied before the insert.
        """
        if len(cache) >= CACHE_LIMIT:
            cache.clear()
        cache[key] = r
        return r

    # ------------------------------------------------------------------
    # elementwise operations

    @depth_checked
    def apply(self, op: str, a: int, b: int) -> int:
        """Pointwise combine two diagrams; op is 'add' or 'mul'."""
        if op == _ADD:
            rec = self._add
        elif op == _MUL:
            rec = self._mul
        else:
            raise ValueError(f"unknown apply op: {op!r}")
        if (self._value[a] is None and self._value[b] is None
                and self._span(a)[1] != self._span(b)[1]):
            raise SpaceMismatchError(
                "elementwise op between vector and matrix diagrams")
        return rec(a, b)

    # Both ops commute, so every pair is keyed in ascending order.  A
    # terminal operand runs through the same recursion as an internal one:
    # its variable sorts after every decision variable, so it is never the
    # branching side and is passed down whole to both children.

    def _add(self, a: int, b: int) -> int:
        value = self._value
        va, vb = value[a], value[b]
        # Identity shortcuts return operands untouched (reference-neutral).
        if va == 0:
            return b
        if vb == 0:
            return a
        if va is not None and vb is not None:
            return self._term(va + vb)
        key = (a, b) if a <= b else (b, a)
        hit = self._add_memo.get(key)
        if hit is not None:
            return hit
        var, low, high = self._var, self._low, self._high
        wa, wb = var[a], var[b]
        w = wa if wa < wb else wb
        a0, a1 = (low[a], high[a]) if wa == w else (a, a)
        b0, b1 = (low[b], high[b]) if wb == w else (b, b)
        r = self.node(w, self._add(a0, b0), self._add(a1, b1))
        return self._remember(self._add_memo, key, r)

    def _mul(self, a: int, b: int) -> int:
        value = self._value
        va, vb = value[a], value[b]
        # Identity and annihilator shortcuts return operands untouched, so
        # e.g. multiplying by a constant-one diagram is reference-neutral.
        if va == 0 or vb == 0:
            return self._zero
        if va == 1:
            return b
        if vb == 1:
            return a
        if va is not None and vb is not None:
            return self._term(va * vb)
        key = (a, b) if a <= b else (b, a)
        hit = self._mul_memo.get(key)
        if hit is not None:
            return hit
        var, low, high = self._var, self._low, self._high
        wa, wb = var[a], var[b]
        w = wa if wa < wb else wb
        a0, a1 = (low[a], high[a]) if wa == w else (a, a)
        b0, b1 = (low[b], high[b]) if wb == w else (b, b)
        r = self.node(w, self._mul(a0, b0), self._mul(a1, b1))
        return self._remember(self._mul_memo, key, r)

    # ------------------------------------------------------------------
    # matrix algebra

    def _span(self, ref: int) -> tuple[int, bool]:
        """(largest variable or -1, any column variable) of a diagram.

        The space checks all read it.  One walk per root (:meth:`survey`),
        remembered in a computed table, so a diagram checked by several
        calls is walked once until the table is emptied.
        """
        hit = self._span_memo.get(ref)
        if hit is not None:
            return hit
        return self.survey(ref)[2]

    def _check_vector(self, v: int, k: int) -> None:
        top, odd = self._span(v)
        if odd:
            raise SpaceMismatchError("vector operand uses column variables")
        if top > 2 * (k - 1):
            raise SpaceMismatchError(
                f"vector operand exceeds {k} qubits (max var {top})")

    def _check_matrix(self, g: int, k: int) -> None:
        top = self._span(g)[0]
        if top > 2 * k - 1:
            raise SpaceMismatchError(
                f"matrix operand exceeds {k} qubits (max var {top})")

    @depth_checked
    def matvec(self, gate: int, vec: int, k: int, phase: int | None = None) -> int:
        """Multiply a matrix diagram into a vector diagram over k qubits.

        With ``phase`` it multiplies into ``apply("mul", phase, vec)``
        without building it: the walk carries the phase beside the vector.
        That is bit for bit the built product's result unless the product
        drops a node the pair keeps, or the walk first fills a product
        entry's grid cell with another value; then it agrees to rounding.

        The matvec, vector-sum, add and multiply tables are emptied when
        the call starts, so their entries last one call; the row-sum
        table is kept."""
        if k < 1:
            raise SpaceMismatchError("k must be >= 1")
        self._check_matrix(gate, k)
        self._check_vector(vec, k)
        if phase is not None:
            self._check_vector(phase, k)
        for memo in (self._mv_memo, self._vs_memo, self._add_memo,
                     self._mul_memo):
            memo.clear()
        # The shortcuts return the zero terminal, so it must exist.
        self._term(0j)
        ref, off = self._matvec_rec(0, gate, vec, phase, k)
        if off == 0:
            return ref
        return self._add(self._term(off), ref)

    def _matvec_rec(self, m: int, g: int, w: int, p: int | None,
                    k: int) -> tuple[int, complex]:
        # Returns (ref, off) meaning the true block result is ref with off
        # added to every entry.  Keeping the uniform part symbolic lets a
        # level pass its partial sums upward without rewriting the deep
        # child, so a product against a mostly-constant gate touches each
        # result node once instead of once per level, and it keeps the
        # uniform partial sums out of the terminal table.
        # Phase block p: folded into w where it turns constant, dropped if 1.
        value = self._value
        if p is not None and value[p] is not None:
            w, p = (w if value[p] == 1 else self._mul(p, w)), None
        gv, wv = value[g], value[w]
        if gv == 0 or wv == 0:
            return self._zero, 0j
        if gv is not None:
            # Constant block: every row sums the same entries, so the whole
            # result is uniform and lives entirely in the offset.
            return self._zero, gv * self._vecsum_rec(m, w, p, k)
        if wv is not None and p is None:
            # Constant vector segment: the result is the block's row-sum
            # profile scaled once, and the profile caches per gate node.
            # When every row sums the same (the diffusion operator's
            # diagonal blocks), the product is uniform and goes into the
            # offset like a constant block's.
            rs = self._rowsum_rec(m, g, k)
            rsv = value[rs]
            if rsv is not None:
                return self._zero, wv * rsv
            return self._mul(w, rs), 0j
        key = (m, g, w, p)
        hit = self._mv_memo.get(key)
        if hit is not None:
            return hit
        # Cofactors on row variable rv, then on column variable cv; an
        # operand that skips the variable is both of its cofactors.
        var, low, high = self._var, self._low, self._high
        rv = 2 * m
        cv = rv + 1
        if var[g] == rv:
            g0, g1 = low[g], high[g]
        else:
            g0 = g1 = g
        if var[g0] == cv:
            g00, g01 = low[g0], high[g0]
        else:
            g00 = g01 = g0
        if var[g1] == cv:
            g10, g11 = low[g1], high[g1]
        else:
            g10 = g11 = g1
        if var[w] == rv:
            w0, w1 = low[w], high[w]
        else:
            w0 = w1 = w
        if p is not None and var[p] == rv:
            p0, p1 = low[p], high[p]
        else:
            p0 = p1 = p
        m1 = m + 1
        zero = self._zero
        # A zero side of a sum is skipped as _add would skip it.
        l0, c00 = self._matvec_rec(m1, g00, w0, p0, k)
        l1, c01 = self._matvec_rec(m1, g01, w1, p1, k)
        lo = l1 if l0 == zero else l0 if l1 == zero else self._add(l0, l1)
        lo_off = c00 + c01
        h0, c10 = self._matvec_rec(m1, g10, w0, p0, k)
        h1, c11 = self._matvec_rec(m1, g11, w1, p1, k)
        hi = h1 if h0 == zero else h0 if h1 == zero else self._add(h0, h1)
        hi_off = c10 + c11
        if lo_off == hi_off:
            off = lo_off
        elif value[hi] is not None:
            # Fold the offset difference into whichever side is a bare
            # terminal; the non-terminal side keeps its subtree untouched.
            off = lo_off
            hi = self._term(value[hi] + (hi_off - lo_off))
        elif value[lo] is not None:
            off = hi_off
            lo = self._term(value[lo] + (lo_off - hi_off))
        else:
            off = lo_off
            hi = self._add(self._term(hi_off - lo_off), hi)
        r = (lo if lo == hi else self.node(rv, lo, hi)), off
        return self._remember(self._mv_memo, key, r)

    def _vecsum_rec(self, m: int, w: int, p: int | None, k: int) -> complex:
        """Sum of all 2^(k-m) entries of a vector diagram below level m."""
        value = self._value
        if p is not None and value[p] is not None:
            w, p = (w if value[p] == 1 else self._mul(p, w)), None
        wv = value[w]
        if wv is not None and p is None:
            return wv * (1 << (k - m))
        key = (m, w, p)
        hit = self._vs_memo.get(key)
        if hit is not None:
            return hit
        var, low, high = self._var, self._low, self._high
        rv = 2 * m
        if p is not None and var[p] == rv:
            p0, p1 = low[p], high[p]
        else:
            p0 = p1 = p
        if var[w] == rv:
            w0, w1 = low[w], high[w]
        else:
            w0 = w1 = w
        if w0 != w1 or p0 != p1:
            r = (self._vecsum_rec(m + 1, w0, p0, k)
                 + self._vecsum_rec(m + 1, w1, p1, k))
        else:
            r = 2 * self._vecsum_rec(m + 1, w, p, k)
        return self._remember(self._vs_memo, key, r)

    def _rowsum_rec(self, m: int, g: int, k: int) -> int:
        """Vector of per-row sums of a matrix block below level m."""
        gv = self._value[g]
        if gv is not None:
            return self._term(gv * (1 << (k - m)))
        key = (m, g)
        hit = self._rs_memo.get(key)
        if hit is not None:
            return hit
        var, low, high = self._var, self._low, self._high
        rv = 2 * m
        cv = rv + 1
        g0, g1 = (low[g], high[g]) if var[g] == rv else (g, g)
        g00, g01 = (low[g0], high[g0]) if var[g0] == cv else (g0, g0)
        g10, g11 = (low[g1], high[g1]) if var[g1] == cv else (g1, g1)
        m1 = m + 1
        lo = self._add(self._rowsum_rec(m1, g00, k),
                       self._rowsum_rec(m1, g01, k))
        hi = self._add(self._rowsum_rec(m1, g10, k),
                       self._rowsum_rec(m1, g11, k))
        r = self.node(rv, lo, hi)
        self._rs_reach = None
        return self._remember(self._rs_memo, key, r)

    # ------------------------------------------------------------------
    # scalar queries

    @depth_checked
    def inner_product(self, u: int, v: int, k: int, mask: int | None = None):
        """<u|v> with the left operand conjugated.

        With a 0/1 vector ``mask`` it returns the pair
        (<u|diag(mask)|v>, <u|v>) from one walk, without building the
        masked vectors.  Both are bit-identical to separate walks: the
        second to ``inner_product(u, v, k)``, and
        ``inner_product(v, v, k, mask)[0]`` to ``inner_product(w, w, k)``
        for ``w = apply("mul", mask, v)``.  A mask terminal other than
        exactly 0 or 1 that the walk reaches raises :class:`MaskError`.
        The inner-product table is emptied when the call starts, so its
        entries last one call.
        """
        self._check_vector(u, k)
        self._check_vector(v, k)
        self._ip_memo.clear()
        if mask is None:
            return self._inner_rec(0, None, u, v, k)[0]
        self._check_vector(mask, k)
        return self._inner_rec(0, mask, u, v, k)

    def _inner_rec(self, m: int, mask: int | None, u: int, v: int,
                   k: int) -> tuple[complex, complex]:
        # (sum where the mask is 1, sum over all entries); mask None is all
        # ones.  The mask is read before the operands, so a bad mask
        # terminal raises even under a zero operand; where it turns 1 it
        # is dropped and the walk shares the unmasked (m, u, v) entries.
        # Below an internal mask over two terminals the full sum adds two
        # equal halves x * 2^j, which is exactly x * 2^(j + 1).
        value = self._value
        if mask is not None:
            mv = value[mask]
            if mv is not None:
                if mv == 0:
                    return 0j, self._inner_rec(m, None, u, v, k)[1]
                if mv != 1:
                    raise MaskError(f"mask terminal {mv!r} is not 0 or 1")
                mask = None
        uv, vv = value[u], value[v]
        if uv == 0 or vv == 0:
            return 0j, 0j
        if mask is None:
            if uv is not None and vv is not None:
                s = uv.conjugate() * vv * (1 << (k - m))
                return s, s
            key = (m, u, v)
        else:
            key = (m, mask, u, v)
        hit = self._ip_memo.get(key)
        if hit is not None:
            return hit
        var, low, high = self._var, self._low, self._high
        w = 2 * m
        if mask is not None and var[mask] == w:
            mask0, mask1 = low[mask], high[mask]
        else:
            mask0 = mask1 = mask
        if var[u] == w:
            u0, u1 = low[u], high[u]
        else:
            u0 = u1 = u
        if var[v] == w:
            v0, v1 = low[v], high[v]
        else:
            v0 = v1 = v
        s0, f0 = self._inner_rec(m + 1, mask0, u0, v0, k)
        s1, f1 = self._inner_rec(m + 1, mask1, u1, v1, k)
        return self._remember(self._ip_memo, key, (s0 + s1, f0 + f1))

    def entry_at(self, vec: int, x: int, k: int) -> complex:
        """Amplitude of basis state ``x`` of a k-qubit vector."""
        self._check_vector(vec, k)
        if not 0 <= x < (1 << k):
            raise IndexError(f"index {x} out of range for {k} qubits")
        cur = vec
        var, low, high = self._var, self._low, self._high
        for i in range(k):
            if var[cur] == 2 * i:
                cur = high[cur] if (x >> (k - 1 - i)) & 1 else low[cur]
        return self._value[cur]

    def subtree_sums(self, root: int, k: int, leaf) -> dict:
        """``leaf(value)`` summed over every entry below each node of a vector.

        Maps each node reachable from ``root`` to the sum over the
        2^(k - q) entries of the block that starts at the node's own
        qubit q; a terminal (q = k) maps to ``leaf`` of its value.  A
        child that skips levels stands for 2^(skipped) equal blocks, so
        its sum is scaled by that count.  Sums are low-child part plus
        high-child part, in that order.  A child's ref is below its
        parent's (``node`` appends, and ``collect`` keeps the order), so
        one pass in ascending ref order sums every child before its
        parents, whatever the depth of the diagram.
        """
        self._check_vector(root, k)
        value, var, low, high = self._value, self._var, self._low, self._high
        sums: dict = {}
        for n in sorted(self.reachable(root)):
            v = value[n]
            if v is not None:
                sums[n] = leaf(v)
                continue
            lo, hi = low[n], high[n]
            q = var[n] // 2
            qlo = k if value[lo] is not None else var[lo] // 2
            qhi = k if value[hi] is not None else var[hi] // 2
            sums[n] = (sums[lo] * (1 << (qlo - q - 1))
                       + sums[hi] * (1 << (qhi - q - 1)))
        return sums

    def reachable(self, *roots: int, exclude=frozenset()) -> set:
        """Every node reachable from ``roots`` and not in ``exclude``,
        terminals included.

        The walk stops at the nodes of ``exclude``, so ``exclude`` must
        hold every child of each of its nodes, as a ``reachable`` set or
        ``range(floor)`` does.
        """
        value, low, high = self._value, self._low, self._high
        seen = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n not in seen and n not in exclude:
                seen.add(n)
                if value[n] is None:
                    stack.append(low[n])
                    stack.append(high[n])
        return seen

    def count_nodes(self, *roots: int) -> NodeCount:
        """Reachable internal and terminal node counts, deduplicated."""
        seen = self.reachable(*roots)
        value = self._value
        terminal = sum(1 for n in seen if value[n] is not None)
        return NodeCount(len(seen) - terminal, terminal)

    def survey(self, root: int, exclude=frozenset()
               ) -> tuple[int, list[int], tuple[int, bool]]:
        """The internal-node count and the terminals of ``root`` beyond
        ``exclude`` (a :meth:`reachable` set), and its span, from one walk.

        The span (:meth:`_span`) is entered into the span table, so the
        space checks of later calls on ``root`` walk nothing.  It is
        exact where the walk stops at ``exclude``: each internal node of
        ``exclude`` that the walk meets adds its own span.
        """
        value, var, low, high = self._value, self._var, self._low, self._high
        seen = set()
        met = set()             # internal nodes of exclude reached
        stack = [root]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            if n in exclude:
                if value[n] is None:
                    met.add(n)
                continue
            seen.add(n)
            if value[n] is None:
                stack.append(low[n])
                stack.append(high[n])
        used = [var[n] for n in seen if value[n] is None]
        top, odd = max(used, default=-1), any(v & 1 for v in used)
        for n in met:
            n_top, n_odd = self._span(n)
            top, odd = max(top, n_top), odd or n_odd
        span = self._remember(self._span_memo, root, (top, odd))
        return len(used), [n for n in seen if value[n] is not None], span

    # ------------------------------------------------------------------
    # dead-node collection

    def sweep(self, floor: int, since: int, previous, current) -> None:
        """Drop from the terminal table the terminals a caller has left.

        The candidates are the terminals at or above ``floor`` that are
        in ``previous`` or were made at or after ref ``since``; only
        those refs are scanned.  A candidate is dropped unless
        ``current`` holds it, the row-sum table's results reach it, or it
        is the zero terminal.  A dropped terminal stays in the store, out
        of reach of new diagrams (its cell gets a new representative when
        it is next met), until :meth:`collect` frees it.  So the caller
        may keep no diagram above ``floor`` that reaches a candidate
        outside ``current``.  Terminals below ``floor`` are never dropped:
        refs there outlive every collection, and a second terminal in
        their cell would break canonicity.
        """
        value = self._value
        keep = {*current, self._zero}
        dead = [n for n in chain(previous, range(since, len(value)))
                if n >= floor and value[n] is not None and n not in keep]
        if not dead:
            return
        reach = self._rs_reach
        if reach is None:
            reach = self._rs_reach = self.reachable(*self._rs_memo.values())
        terminals = self._terminals
        for n in dead:
            if n not in reach:
                del terminals[_grid_key(value[n])]

    def collect(self, floor: int, roots: tuple[int, ...]) -> tuple[int, ...]:
        """Free the nodes at or above ``floor`` that no root reaches.

        Refs below ``floor`` are left as they are.  The results of the
        row-sum table's entries for gates below ``floor`` count as roots,
        and so does every terminal still in the terminal table, so only
        terminals :meth:`sweep` dropped are freed.  The survivors keep
        their order and close up from ``floor``.  Returns the roots
        renumbered; every other ref at or above ``floor`` is invalid
        afterwards.  The row-sum entries kept are renumbered, the
        span entries of refs below ``floor`` are kept, and every other
        computed-table entry is dropped, since it may name a freed ref.
        The work is linear in the size of the region.
        """
        var, low, high, value = self._var, self._low, self._high, self._value
        size = len(var)
        if floor >= size:
            return roots
        row_sums = {key: r for key, r in self._rs_memo.items()
                    if key[1] < floor}
        spans = {r: s for r, s in self._span_memo.items() if r < floor}
        # Children precede parents, so the nodes below the floor are
        # closed under children and the walk can stop there.
        live = self.reachable(*roots, *row_sums.values(), exclude=range(floor))
        terminals = self._terminals
        live.update(r for r in terminals.values() if r >= floor)
        unique = self._unique
        for key in zip(var[floor:], low[floor:], high[floor:]):
            unique.pop(key, None)       # terminal keys were never entered
        kept = sorted(live)
        moved = dict(zip(kept, range(floor, floor + len(kept))))
        tails = ([var[n] for n in kept],
                 [moved.get(low[n], low[n]) for n in kept],
                 [moved.get(high[n], high[n]) for n in kept],
                 [value[n] for n in kept])
        for lst, tail in zip((var, low, high, value), tails):
            del lst[floor:]
            lst.extend(tail)
        terminals.update({key: moved[r] for key, r in terminals.items()
                          if r >= floor})
        self._zero = terminals.get((0, 0))
        unique.update(((var[n], low[n], high[n]), n)
                      for n in range(floor, len(var)) if value[n] is None)
        self._freed += size - len(var)
        for memo in self._memos:
            memo.clear()
        self._rs_memo.update({key: moved.get(r, r)
                              for key, r in row_sums.items()})
        self._span_memo.update(spans)
        self._rs_reach = None
        return tuple(moved.get(r, r) for r in roots)

    # ------------------------------------------------------------------
    # diagnostics

    def dump(self, *roots: int) -> str:
        """Plain-text adjacency listing of the reachable subgraph.

        One line per node, ascending id:
        ``<id> <var> <low-id> <high-id>`` for internal nodes and
        ``<id> T <re> <im>`` for terminals.
        """
        lines = []
        for n in sorted(self.reachable(*roots)):
            v = self._value[n]
            if v is None:
                lines.append(f"{n} {self._var[n]} {self._low[n]} {self._high[n]}")
            else:
                lines.append(f"{n} T {v.real:.17g} {v.imag:.17g}")
        return "\n".join(lines)
