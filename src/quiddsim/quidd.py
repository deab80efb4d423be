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
a floor index are never referenced from below it.  The zero terminal is
interned first, as ref 0 (``_ZERO``), so it lies below every floor.
:meth:`QuiddManager.collect` frees the nodes above a floor that given
roots do not reach and renumbers the survivors; refs below the floor are
untouched and stay valid, refs above it are valid only as the renumbered
roots it returns.  A terminal leaves the store only after it has left
the terminal table: :meth:`QuiddManager.sweep` drops from the table
every terminal above the floor that the caller's current terminals do
not include (a cell met again gets a new representative), and the next
collection frees them.  The table is in ref order, so a sweep reads
only its entries above the floor.  Every other terminal above the floor
survives a collection whether or not a root reaches it, and no terminal
below the floor is ever swept, so a cell's representative changes only
at a sweep and results do not depend on when collections happen.  The
kernels keep no node above a floor between calls (the row-sum table
holds numbers), so sweep and collect read only the terminal table.

A matvec builds each node of its result once, after the offset of the
whole result is known (:meth:`QuiddManager.matvec`), so a single-marked
Grover iteration creates k + 4 nodes.

Computed tables
---------------
Each operation remembers its results in a computed table.  A table is
emptied when it reaches ``CACHE_LIMIT`` entries.  The tables a product
or an inner product fills last one call: :meth:`QuiddManager.matvec`
empties the matvec, add and multiply tables when it starts, and
:meth:`QuiddManager.inner_product` empties the inner-product table.
A matvec entry holds the sum of its input block beside its result, so
no table of its own keeps vector sums.
In a Grover run every iteration has a new state, so their entries would
be dead by the next call anyway.  The row-sum table (keyed by gate
blocks, holding numbers) and the span table outlive a call.  A
collection keeps the row-sum and span entries keyed below the floor
unchanged and empties the rest.  Results never depend on what a table
holds.

A manager and every ref it issued are confined to one thread of control.
Refs from different managers must never be mixed.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

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

_ZERO = 0           # the zero terminal's ref: every manager interns it first
_MISS = object()    # a computed-table miss where None is a valid result


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
    The zero terminal, an exact ``0j``, is ref 0 from the start, so the
    kernels' shortcuts return it as a constant.  The manager takes no
    settings.
    """

    def __init__(self):
        self._var: list[int] = [TERMINAL_VAR]
        self._low: list[int] = [-1]
        self._high: list[int] = [-1]
        self._value: list[complex | None] = [0j]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._terminals: dict[tuple[int, int], int] = {(0, 0): _ZERO}
        # One computed table per operation, each bounded by CACHE_LIMIT.
        self._add_memo: dict = {}
        self._mul_memo: dict = {}
        self._mv_memo: dict = {}
        self._rs_memo: dict = {}
        self._ip_memo: dict = {}
        self._span_memo: dict = {}
        self._memos = (self._add_memo, self._mul_memo, self._mv_memo,
                       self._rs_memo, self._ip_memo, self._span_memo)
        # Deferred nodes of the running matvec: triple -> negative ref,
        # the triples by ~ref, the real nodes built from them, and the
        # deferred nodes shifted by an offset.
        self._deferred: dict[tuple[int, int, int], int] = {}
        self._dnodes: list[tuple[int, int, int]] = []
        self._built: dict[tuple[int, int | None], int] = {}
        self._shifted: dict[tuple[int, int], int] = {}
        self._freed = 0         # nodes released by collect()

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
            ref = self._terminals[key] = self._new(TERMINAL_VAR, -1, -1, z)
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
            return _ZERO
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

        The walk defers each new internal node (:meth:`_defer`) and
        returns the result's uniform offset beside it; only then are the
        deferred nodes built, with the offset in their terminals
        (:meth:`_build`).  Unreached nodes remain only where a block sums
        two non-zero products.  Each call of the walk also returns the
        sum of its input block, so a constant gate block takes its offset
        from the call of the internal block on its column; where no such
        call is made, the constant block walks its input itself, as its
        own cofactor, for the sum alone.  A constant input under a block
        whose rows share one sum (:meth:`_rowsum_rec`) adds to the offset.

        The matvec, add and multiply tables are emptied when the call
        starts, so their entries last one call; the deferred nodes are
        emptied when it returns; the row-sum table is kept."""
        if k < 1:
            raise SpaceMismatchError("k must be >= 1")
        self._check_matrix(gate, k)
        self._check_vector(vec, k)
        if phase is not None:
            self._check_vector(phase, k)
        for memo in (self._mv_memo, self._add_memo, self._mul_memo):
            memo.clear()
        try:
            ref, off, _ = self._matvec_rec(0, gate, vec, phase, k)
            t = None if off == 0 else self._term(off)
            return self._build(ref, None if t == _ZERO else t)
        finally:
            self._deferred.clear()
            self._dnodes.clear()
            self._built.clear()
            self._shifted.clear()

    def _matvec_rec(self, m: int, g: int, w: int, p: int | None,
                    k: int) -> tuple[int, complex, complex | None]:
        # Returns (ref, off, s): the true block result is ref with off
        # added to every entry, and s is the sum of the phase-folded input
        # block, or None where the walk did not reach it (a zero input, or
        # a side of two zero blocks below).
        # Keeping the uniform part symbolic lets a level pass its partial
        # sums upward without rewriting the deep child, so a product
        # against a mostly-constant gate touches each result node once
        # instead of once per level, and it keeps the uniform partial sums
        # out of the terminal table.  A new internal node is not built
        # here but deferred (a negative ref, see _defer), so matvec builds
        # it once, with the top offset added.
        # Phase block p: folded into w where it turns constant, dropped if 1.
        value = self._value
        if p is not None and value[p] is not None:
            w, p = (w if value[p] == 1 else self._mul(p, w)), None
        gv, wv = value[g], value[w]
        if gv == 0 or wv == 0:
            return _ZERO, 0j, None
        if wv is not None and p is None:
            # Constant vector segment: when every row of the block sums
            # the same (a constant block, or the diffusion operator's
            # diagonal blocks), the product is uniform and goes into the
            # offset.  Otherwise the general path below splits the block,
            # the input being both of its own cofactors.
            s = wv * (1 << (k - m))
            if gv is not None:
                return _ZERO, gv * s, s
            rs = self._rowsum_rec(m, g, k)
            if rs is not None:
                return _ZERO, wv * rs, s
        key = (m, g, w, p)
        hit = self._mv_memo.get(key)
        if hit is not None:
            return hit
        # Cofactors on row variable rv, then on column variable cv; an
        # operand that skips the variable is both of its cofactors.
        var, low, high = self._var, self._low, self._high
        rv = 2 * m
        cv = rv + 1
        if var[w] == rv:
            w0, w1 = low[w], high[w]
        else:
            w0 = w1 = w
        if p is not None and var[p] == rv:
            p0, p1 = low[p], high[p]
        else:
            p0 = p1 = p
        m1 = m + 1
        zero = _ZERO
        rec = self._matvec_rec
        if gv is not None:
            # Constant block, its own cofactor: every row sums the same
            # entries, so the whole result is uniform and lives entirely
            # in the offset.  The walk only sums the input.
            s = rec(m1, g, w0, p0, k)[2]
            if w0 != w1 or p0 != p1:
                s1 = rec(m1, g, w1, p1, k)[2]
                s = (0j if s is None else s) + (0j if s1 is None else s1)
            else:
                s = 2 * s
            return self._remember(self._mv_memo, key, (zero, gv * s, s))
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
        v00, v01, v10, v11 = value[g00], value[g01], value[g10], value[g11]
        # Column side 0, (w0, p0), lies under blocks g00 and g10, side 1
        # under g01 and g11.  The calls keep the order g00, g01, g10, g11,
        # but a non-zero constant block takes no call where the sum of its
        # side is known: its offset is its value times that sum, which
        # each call returns.  A top block beside an internal one reads it
        # from the call below it, a bottom block from the call above.
        if v00 and v10 is None:
            l0, c00, s0 = zero, None, None
        else:
            l0, c00, s0 = rec(m1, g00, w0, p0, k)
        if v01 and v11 is None:
            l1, c01, s1 = zero, None, None
        else:
            l1, c01, s1 = rec(m1, g01, w1, p1, k)
        # A zero side of a sum is skipped as _add would skip it; a summed
        # side that is deferred is built first, with no offset.
        lo = (l1 if l0 == zero else l0 if l1 == zero
              else self._add(self._build(l0, None), self._build(l1, None)))
        if v10 and s0 is not None:
            h0, c10 = zero, v10 * s0
        else:
            h0, c10, t = rec(m1, g10, w0, p0, k)
            if s0 is None:
                s0 = t
        if v11 and s1 is not None:
            h1, c11 = zero, v11 * s1
        else:
            h1, c11, t = rec(m1, g11, w1, p1, k)
            if s1 is None:
                s1 = t
        hi = (h1 if h0 == zero else h0 if h1 == zero
              else self._add(self._build(h0, None), self._build(h1, None)))
        if c00 is None:
            c00 = v00 * s0 if s0 is not None else rec(m1, g00, w0, p0, k)[1]
        if c01 is None:
            c01 = v01 * s1 if s1 is not None else rec(m1, g01, w1, p1, k)[1]
        lo_off = c00 + c01
        hi_off = c10 + c11
        if s0 is None or s1 is None:
            s = None
        elif w0 != w1 or p0 != p1:
            s = s0 + s1
        else:
            s = 2 * s0
        if lo_off == hi_off:
            off = lo_off
        elif hi >= 0 and value[hi] is not None:
            # Fold the offset difference into whichever side is a bare
            # terminal; the non-terminal side keeps its subtree untouched.
            off = lo_off
            hi = self._term(value[hi] + (hi_off - lo_off))
        elif lo >= 0 and value[lo] is not None:
            off = hi_off
            lo = self._term(value[lo] + (lo_off - hi_off))
        else:
            # Between two non-terminal sides the high side takes it; a
            # deferred one stays deferred (_shift).
            off = lo_off
            t = self._term(hi_off - lo_off)
            if t != zero:
                hi = self._shift(hi, t)
        r = (lo if lo == hi else self._defer(rv, lo, hi)), off, s
        return self._remember(self._mv_memo, key, r)

    def _defer(self, var: int, low: int, high: int) -> int:
        """A deferred internal node (a negative ref) of the running matvec,
        hash-consed among the deferred nodes.  :meth:`_build` interns each
        node it makes, so a built result never duplicates an existing
        node."""
        key = (var, low, high)
        ref = self._deferred.get(key)
        if ref is None:
            ref = self._deferred[key] = ~len(self._dnodes)
            self._dnodes.append(key)
        return ref

    def _build(self, ref: int, t: int | None) -> int:
        """``ref`` with terminal ``t`` added to every entry (nothing where
        ``t`` is None), a deferred ref built as a real node.

        A deferred node's children are built low before high and then the
        node, the order in which ``_add(t, ·)`` would visit the node had
        it been built.
        """
        if ref >= 0:
            return ref if t is None else self._add(t, ref)
        key = (ref, t)
        hit = self._built.get(key)
        if hit is not None:
            return hit
        var, low, high = self._dnodes[~ref]
        r = self._built[key] = self.node(var, self._build(low, t),
                                         self._build(high, t))
        return r

    def _shift(self, ref: int, t: int) -> int:
        """``ref`` with terminal ``t`` added to every entry, a deferred ref
        kept deferred.

        It makes the terminals and the real nodes that ``_build(ref, t)``
        would make, in the same order, but defers the nodes it would
        build from deferred ones, so they are built once, with every
        offset above them added.
        """
        if ref >= 0:
            return self._add(t, ref)
        key = (ref, t)
        hit = self._shifted.get(key)
        if hit is not None:
            return hit
        var, low, high = self._dnodes[~ref]
        lo, hi = self._shift(low, t), self._shift(high, t)
        r = self._shifted[key] = lo if lo == hi else self._defer(var, lo, hi)
        return r

    def _rowsum_rec(self, m: int, g: int, k: int) -> complex | None:
        """The sum shared by every row of a matrix block below level m,
        or None where the rows of the block or of a quadrant differ.
        Partial sums are interned as :meth:`_add` would intern them, and
        each is its terminal's value, a grid-cell representative."""
        value = self._value
        gv = value[g]
        if gv is not None:
            return value[self._term(gv * (1 << (k - m)))]
        key = (m, g)
        hit = self._rs_memo.get(key, _MISS)
        if hit is not _MISS:
            return hit
        var, low, high = self._var, self._low, self._high
        rv = 2 * m
        cv = rv + 1
        g0, g1 = (low[g], high[g]) if var[g] == rv else (g, g)
        g00, g01 = (low[g0], high[g0]) if var[g0] == cv else (g0, g0)
        g10, g11 = (low[g1], high[g1]) if var[g1] == cv else (g1, g1)
        m1 = m + 1
        sums = []
        for a, b in ((g00, g01), (g10, g11)):
            sa, sb = self._rowsum_rec(m1, a, k), self._rowsum_rec(m1, b, k)
            sums.append(None if sa is None or sb is None else
                        sb if sa == 0 else sa if sb == 0 else
                        value[self._term(sa + sb)])
        lo, hi = sums
        return self._remember(self._rs_memo, key, lo if lo == hi else None)

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
        the nodes of ``exclude``, and its span, from one walk.

        The walk goes through the nodes of ``exclude`` (a set) without
        counting or listing them, so the span (:meth:`_span`) is read off
        the same walk.  It is entered into the span table, so the space
        checks of later calls on ``root`` walk nothing.
        """
        value, var, low, high = self._value, self._var, self._low, self._high
        seen = set()
        stack = [root]
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                if value[n] is None:
                    stack.append(low[n])
                    stack.append(high[n])
        used = [var[n] for n in seen if value[n] is None]
        span = self._remember(self._span_memo, root, (
            max(used, default=-1), any(v & 1 for v in used)))
        terminals = [n for n in seen
                     if value[n] is not None and n not in exclude]
        internal = len(seen) - len(seen & exclude) - len(terminals)
        return internal, terminals, span

    # ------------------------------------------------------------------
    # dead-node collection

    def sweep(self, floor: int, current) -> None:
        """Drop from the terminal table the terminals a caller has left.

        The candidates are the table's terminals at or above ``floor``,
        the zero terminal (ref 0) excepted.  The table is in ref order
        (:meth:`_term` gives each new cell the next ref, and
        :meth:`collect` keeps their order), so the scan starts at the
        newest entry and stops at the first ref below ``floor`` or at
        ref 0.  A candidate is dropped unless ``current`` holds it.
        A dropped terminal stays in the store, out of reach of new
        diagrams (its cell gets a new representative when it is next
        met), until :meth:`collect` frees it.  So the caller may keep no
        diagram above ``floor`` that reaches a terminal above ``floor``
        outside ``current``.  Terminals below ``floor`` are never
        dropped: refs there outlive every collection, and a second
        terminal in their cell would break canonicity.
        """
        terminals = self._terminals
        keep = set(current)
        dead = []
        for key, n in reversed(terminals.items()):
            if n < floor or n == _ZERO:
                break
            if n not in keep:
                dead.append(key)
        for key in dead:
            del terminals[key]

    def collect(self, floor: int, roots: tuple[int, ...]) -> tuple[int, ...]:
        """Free the nodes at or above ``floor`` that no root reaches.

        Refs below ``floor`` are left as they are.  Every terminal still
        in the terminal table counts as a root beside ``roots``, so only
        terminals :meth:`sweep` dropped are freed, and the zero terminal
        stays ref 0.  The survivors keep their order and close up from
        ``floor``.  Returns the roots renumbered; every other ref at or
        above ``floor`` is invalid afterwards.  The row-sum and span
        entries keyed below ``floor`` are kept unchanged, and every other
        computed-table entry is dropped, since it may name a freed ref.
        The work is linear in the size of the region.  A negative
        ``floor`` raises :class:`QuiddError`.
        """
        if floor < 0:
            raise QuiddError(f"collect floor must be >= 0, got {floor}")
        var, low, high, value = self._var, self._low, self._high, self._value
        size = len(var)
        if floor >= size:
            return roots
        row_sums = {key: s for key, s in self._rs_memo.items()
                    if key[1] < floor}
        spans = {r: s for r, s in self._span_memo.items() if r < floor}
        # Children precede parents, so the nodes below the floor are
        # closed under children and the walk can stop there.
        live = self.reachable(*roots, exclude=range(floor))
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
        unique.update(((var[n], low[n], high[n]), n)
                      for n in range(floor, len(var)) if value[n] is None)
        self._freed += size - len(var)
        for memo in self._memos:
            memo.clear()
        self._rs_memo.update(row_sums)
        self._span_memo.update(spans)
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
