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
* Bit 0 of an index is the most significant, so the dense array position
  of a path equals the integer value of its bit string.
* A node skipped on a path means the function ignores that bit: both
  branches would be equal, and the reduction rule removed the node.
* Terminal values are interned on a 1e-15 grid per component (``GRID``);
  the first value seen in a grid cell is kept verbatim as the cell
  representative, so amplitudes are never rounded, only deduplicated.
* Every entry that takes a qubit count or a :class:`VarSpace` checks that
  its diagrams fit it and raises :class:`SpaceMismatchError` otherwise: a
  vector may use only row variables below 2*k, a matrix only variables
  below 2*k, and an elementwise or tensor operation may not pair a
  diagram that uses column variables with one that does not, unless one
  of them is a constant.  The checks read the whole diagram, not only
  the paths a kernel visits, so a mis-sized part under a zero block is
  caught too.

Node lifetime
-------------
Children always precede their parents in the node store, so nodes above
a floor index are never referenced from below it.
:meth:`QuiddManager.collect` frees the internal nodes above a floor that
given roots do not reach and renumbers the survivors; refs below the
floor are untouched and stay valid, refs above it are valid only as the
renumbered roots it returns.  Terminals are permanent: a collection
moves them below the raised floor but never frees one, so every grid
cell keeps its first representative and results do not depend on when
collections happen.

A manager and every ref it issued are confined to one thread of control.
Refs from different managers must never be mixed.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Sorts after every real decision variable, so terminals never win a
# top-variable comparison.
TERMINAL_VAR = 1 << 30

# Quantization pitch of the terminal grid.  Cells only need to be wide
# enough to absorb round-off between different computation paths that
# should agree (a few ulp for order-one values); wider cells let a snapped
# amplitude perturb the state norm measurably once amplitudes shrink to
# 2^(-k/2) at large k.
GRID = 1e-15

# Largest qubit counts a dense expansion may have: 2^20 vector entries,
# 2^24 matrix entries.
VECTOR_QUBIT_CAP = 20
MATRIX_QUBIT_CAP = 12

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


class SizeCapError(QuiddError):
    """Dense expansion request beyond the qubit cap."""


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


class QuiddManager:
    """Interning manager owning the unique table, the terminals and one
    computed table per operation.

    Nodes are integer refs into four parallel arrays: variable, low
    child, high child and value (``None`` for internal nodes).
    :meth:`collect` frees unreachable internal nodes above a floor;
    ``nodes_created`` counts every node ever interned, freed ones
    included.  Live-set sizes are measured by reachability from explicit
    roots via :meth:`count_nodes`.  The space checks derive what they
    need from the diagram itself (:meth:`_span`), through a computed
    table like any other.  Each computed table is emptied once it holds
    ``CACHE_LIMIT`` entries.  The manager takes no settings.
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
        self._shift_memo: dict = {}
        self._graft_memo: dict = {}
        self._mv_memo: dict = {}
        self._vs_memo: dict = {}
        self._rs_memo: dict = {}
        self._mm_memo: dict = {}
        self._ip_memo: dict = {}
        self._span_memo: dict = {}
        self._memos = (self._add_memo, self._mul_memo, self._shift_memo,
                       self._graft_memo, self._mv_memo, self._vs_memo,
                       self._rs_memo, self._mm_memo, self._ip_memo,
                       self._span_memo)
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
            if key == (0, 0):
                z = 0j      # canonical zero keeps annihilator shortcuts exact
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

    def _cof(self, ref: int, var: int, bit: int) -> int:
        if self._var[ref] == var:
            return self._high[ref] if bit else self._low[ref]
        return ref

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
            return self._term(0j)
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

    @depth_checked
    def scalar_mul(self, scalar, a: int) -> int:
        z = complex(scalar)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise InvalidAmplitudeError(f"non-finite scalar: {scalar!r}")
        if z == 1:
            return a
        if z == 0:
            return self.terminal(0)
        return self._mul(self.terminal(z), a)

    # ------------------------------------------------------------------
    # tensor product

    @depth_checked
    def tensor(self, a: int, b: int, left_qubits: int) -> int:
        """Tensor product with ``a`` on the ``left_qubits`` high-order qubits.

        ``b`` is re-indexed below ``a``'s qubits and grafted onto ``a``'s
        terminals.  Works for vectors and matrices alike because both use
        a variable offset of 2 per qubit.
        """
        if left_qubits < 0:
            raise ValueError("left_qubits must be >= 0")
        if (self._value[a] is None and self._value[b] is None
                and self._span(a)[1] != self._span(b)[1]):
            raise SpaceMismatchError("tensor operands live in different space kinds")
        return self._graft(a, self._shift(b, 2 * left_qubits))

    def _shift(self, b: int, delta: int) -> int:
        if delta == 0 or self._value[b] is not None:
            return b
        key = (b, delta)
        hit = self._shift_memo.get(key)
        if hit is not None:
            return hit
        r = self.node(self._var[b] + delta,
                      self._shift(self._low[b], delta),
                      self._shift(self._high[b], delta))
        return self._remember(self._shift_memo, key, r)

    def _graft(self, a: int, b: int) -> int:
        va = self._value[a]
        if va is not None:
            return self._mul(a, b)
        key = (a, b)
        hit = self._graft_memo.get(key)
        if hit is not None:
            return hit
        r = self.node(self._var[a], self._graft(self._low[a], b),
                      self._graft(self._high[a], b))
        return self._remember(self._graft_memo, key, r)

    # ------------------------------------------------------------------
    # matrix algebra

    def _span(self, ref: int) -> tuple[int, bool]:
        """(largest variable or -1, any column variable) of a diagram.

        The space checks all read it.  One walk per root, remembered in a
        computed table, so a diagram checked by several calls is walked
        once until the table is emptied.
        """
        hit = self._span_memo.get(ref)
        if hit is not None:
            return hit
        var, value = self._var, self._value
        used = [var[n] for n in self.reachable(ref) if value[n] is None]
        r = max(used, default=-1), any(v & 1 for v in used)
        return self._remember(self._span_memo, ref, r)

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
        entry's grid cell with another value; then it agrees to rounding."""
        if k < 1:
            raise SpaceMismatchError("k must be >= 1")
        self._check_matrix(gate, k)
        self._check_vector(vec, k)
        if phase is not None:
            self._check_vector(phase, k)
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
        # uniform partial sums out of the terminal table, which
        # collection never shrinks.
        # Phase block p: folded into w where it turns constant, dropped if 1.
        value = self._value
        if p is not None and value[p] is not None:
            w, p = (w if value[p] == 1 else self._mul(p, w)), None
        gv, wv = value[g], value[w]
        if gv == 0 or wv == 0:
            return self._term(0j), 0j
        if gv is not None:
            # Constant block: every row sums the same entries, so the whole
            # result is uniform and lives entirely in the offset.
            return self._term(0j), gv * self._vecsum_rec(m, w, p, k)
        if wv is not None and p is None:
            # Constant vector segment: the result is the block's row-sum
            # profile scaled once, and the profile caches per gate node.
            # When every row sums the same (the diffusion operator's
            # diagonal blocks), the product is uniform and goes into the
            # offset like a constant block's.
            rs = self._rowsum_rec(m, g, k)
            rsv = value[rs]
            if rsv is not None:
                return self._term(0j), wv * rsv
            return self._mul(w, rs), 0j
        key = (m, g, w, p)
        hit = self._mv_memo.get(key)
        if hit is not None:
            return hit
        rv = 2 * m
        cv = rv + 1
        cof = self._cof
        g0 = cof(g, rv, 0)
        g1 = cof(g, rv, 1)
        g00, g01 = cof(g0, cv, 0), cof(g0, cv, 1)
        g10, g11 = cof(g1, cv, 0), cof(g1, cv, 1)
        w0, w1 = cof(w, rv, 0), cof(w, rv, 1)
        p0, p1 = (p, p) if p is None else (cof(p, rv, 0), cof(p, rv, 1))
        m1 = m + 1
        l0, c00 = self._matvec_rec(m1, g00, w0, p0, k)
        l1, c01 = self._matvec_rec(m1, g01, w1, p1, k)
        lo = self._add(l0, l1)
        lo_off = c00 + c01
        h0, c10 = self._matvec_rec(m1, g10, w0, p0, k)
        h1, c11 = self._matvec_rec(m1, g11, w1, p1, k)
        hi = self._add(h0, h1)
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
        rv = 2 * m
        cof = self._cof
        p0, p1 = (p, p) if p is None else (cof(p, rv, 0), cof(p, rv, 1))
        if self._var[w] == rv or p0 != p1:
            r = (self._vecsum_rec(m + 1, cof(w, rv, 0), p0, k)
                 + self._vecsum_rec(m + 1, cof(w, rv, 1), p1, k))
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
        rv = 2 * m
        cv = rv + 1
        cof = self._cof
        g0 = cof(g, rv, 0)
        g1 = cof(g, rv, 1)
        m1 = m + 1
        lo = self._add(self._rowsum_rec(m1, cof(g0, cv, 0), k),
                       self._rowsum_rec(m1, cof(g0, cv, 1), k))
        hi = self._add(self._rowsum_rec(m1, cof(g1, cv, 0), k),
                       self._rowsum_rec(m1, cof(g1, cv, 1), k))
        r = self.node(rv, lo, hi)
        return self._remember(self._rs_memo, key, r)

    @depth_checked
    def matmat(self, a: int, b: int, k: int) -> int:
        """Matrix product of two k-qubit matrix diagrams."""
        if k < 1:
            raise SpaceMismatchError("k must be >= 1")
        self._check_matrix(a, k)
        self._check_matrix(b, k)
        return self._matmat_rec(0, a, b, k)

    def _matmat_rec(self, m: int, a: int, b: int, k: int) -> int:
        value = self._value
        av, bv = value[a], value[b]
        if av == 0 or bv == 0:
            return self._term(0j)
        if av is not None and bv is not None:
            return self._term(av * bv * (1 << (k - m)))
        key = (m, a, b)
        hit = self._mm_memo.get(key)
        if hit is not None:
            return hit
        rv = 2 * m
        cv = rv + 1
        cof = self._cof
        a0, a1 = cof(a, rv, 0), cof(a, rv, 1)
        a00, a01 = cof(a0, cv, 0), cof(a0, cv, 1)
        a10, a11 = cof(a1, cv, 0), cof(a1, cv, 1)
        b0, b1 = cof(b, rv, 0), cof(b, rv, 1)
        b00, b01 = cof(b0, cv, 0), cof(b0, cv, 1)
        b10, b11 = cof(b1, cv, 0), cof(b1, cv, 1)
        m1 = m + 1
        add = self._add
        mm = self._matmat_rec
        c00 = add(mm(m1, a00, b00, k), mm(m1, a01, b10, k))
        c01 = add(mm(m1, a00, b01, k), mm(m1, a01, b11, k))
        c10 = add(mm(m1, a10, b00, k), mm(m1, a11, b10, k))
        c11 = add(mm(m1, a10, b01, k), mm(m1, a11, b11, k))
        r = self.node(rv, self.node(cv, c00, c01), self.node(cv, c10, c11))
        return self._remember(self._mm_memo, key, r)

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
        """
        self._check_vector(u, k)
        self._check_vector(v, k)
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
        w = 2 * m
        cof = self._cof
        mask0 = mask1 = mask
        if mask is not None:
            mask0, mask1 = cof(mask, w, 0), cof(mask, w, 1)
        s0, f0 = self._inner_rec(m + 1, mask0, cof(u, w, 0), cof(v, w, 0), k)
        s1, f1 = self._inner_rec(m + 1, mask1, cof(u, w, 1), cof(v, w, 1), k)
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

    def count_nodes(self, *roots: int, exclude=frozenset()) -> NodeCount:
        """Reachable internal and terminal node counts, deduplicated.

        Nodes in ``exclude`` (a :meth:`reachable` set) are neither walked
        nor counted, so a count against a fixed set of diagrams walks only
        what lies beyond it.
        """
        seen = self.reachable(*roots, exclude=exclude)
        value = self._value
        terminal = sum(1 for n in seen if value[n] is not None)
        return NodeCount(len(seen) - terminal, terminal)

    # ------------------------------------------------------------------
    # dead-node collection

    def collect(self, floor: int,
                roots: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """Free the internal nodes at or above ``floor`` that no root reaches.

        Refs below ``floor`` are left as they are.  Terminals in the region
        are kept and moved, in order, to its front; the surviving internal
        nodes follow them, also in order.  Returns the raised floor, which
        lies past every kept terminal, and the roots renumbered; every
        other ref at or above the old floor is invalid afterwards.  The
        computed tables are emptied, since their entries may name freed
        refs.  The work is linear in the size of the region.
        """
        var, low, high, value = self._var, self._low, self._high, self._value
        size = len(var)
        if floor >= size:
            return floor, roots
        # Children precede parents, so the nodes below the floor are
        # closed under children and the walk can stop there.
        live = self.reachable(*roots, exclude=range(floor))
        unique = self._unique
        for key in zip(var[floor:], low[floor:], high[floor:]):
            unique.pop(key, None)       # terminal keys were never entered
        region = range(floor, size)
        terminals = [n for n, v in zip(region, value[floor:]) if v is not None]
        survivors = sorted(n for n in live if value[n] is None)
        kept = terminals + survivors
        moved = dict(zip(kept, range(floor, floor + len(kept))))
        new_floor = floor + len(terminals)
        tails = ([var[n] for n in kept],
                 [moved.get(low[n], low[n]) for n in kept],
                 [moved.get(high[n], high[n]) for n in kept],
                 [value[n] for n in kept])
        for lst, tail in zip((var, low, high, value), tails):
            del lst[floor:]
            lst.extend(tail)
        # A terminal's grid key is a function of its stored value, the
        # cell's first representative.
        self._terminals.update(zip(map(_grid_key, value[floor:new_floor]),
                                   range(floor, new_floor)))
        unique.update(zip(zip(var[new_floor:], low[new_floor:], high[new_floor:]),
                          range(new_floor, len(var))))
        self._freed += size - len(var)
        for memo in self._memos:
            memo.clear()
        return new_floor, tuple(moved.get(r, r) for r in roots)

    # ------------------------------------------------------------------
    # dense conversion

    def from_dense(self, entries, space: VarSpace) -> int:
        """Build a diagram from a dense numpy array (vector or matrix)."""
        import numpy as np
        arr = np.asarray(entries, dtype=np.complex128)
        n = 1 << space.k
        if space.kind == "vector":
            if arr.shape != (n,):
                raise SpaceMismatchError(
                    f"expected shape ({n},), got {arr.shape}")
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
        return self._build(flat, space, 0, 0, len(flat))

    def _build(self, flat, space: VarSpace, level: int, lo: int, hi: int) -> int:
        if level == space.levels:
            return self.terminal(flat[lo])
        mid = (lo + hi) >> 1
        return self.node(space.var_at_level(level),
                         self._build(flat, space, level + 1, lo, mid),
                         self._build(flat, space, level + 1, mid, hi))

    def to_dense(self, ref: int, space: VarSpace) -> np.ndarray:
        """Expand a diagram into a dense numpy array.  Guarded by size caps."""
        if space.kind == "vector":
            self._check_vector(ref, space.k)
            cap = VECTOR_QUBIT_CAP
        else:
            self._check_matrix(ref, space.k)
            cap = MATRIX_QUBIT_CAP
        if space.k > cap:
            raise SizeCapError(
                f"dense expansion of k={space.k} {space.kind} exceeds cap {cap}")
        flat = self._expand(ref, 0, space, {})
        if space.kind == "vector":
            return flat
        k = space.k
        axes = [2 * q for q in range(k)] + [2 * q + 1 for q in range(k)]
        return flat.reshape([2] * (2 * k)).transpose(axes).reshape(1 << k, 1 << k)

    def _expand(self, n: int, level: int, space: VarSpace, memo: dict) -> np.ndarray:
        import numpy as np
        key = (n, level)
        out = memo.get(key)
        if out is not None:
            return out
        v = self._value[n]
        if v is not None:
            out = np.full(1 << (space.levels - level), v, dtype=np.complex128)
        elif self._var[n] > space.var_at_level(level):
            half = self._expand(n, level + 1, space, memo)
            out = np.concatenate([half, half])
        else:
            out = np.concatenate([
                self._expand(self._low[n], level + 1, space, memo),
                self._expand(self._high[n], level + 1, space, memo)])
        memo[key] = out
        return out

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
