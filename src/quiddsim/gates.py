"""Gate constructors for Grover runs.

All gates are matrix diagrams over the interleaved row/column variable
order.  H on every qubit is the tensor power of the one-qubit H, built
in one pass over the qubits with no dense array and no general tensor
product.  The inversion-about-mean operator is built node by node from
its closed form (2/2^k off the diagonal, 2/2^k - 1 on it) rather than by
composing Hadamard sandwiches.  The composed construction, and the
phase shift about zero that it needs, live only in the tests, as a
dense cross-check.
"""

from __future__ import annotations

import math

from .quidd import QuiddError, QuiddManager, depth_checked


class GateSizeError(QuiddError):
    """Gate requested for a non-positive qubit count."""


def _check_k(k: int) -> None:
    if k < 1:
        raise GateSizeError(f"gates need at least one qubit, got {k}")


def _blocks(m: QuiddManager, q: int, k: int, factor: tuple,
            prefixes) -> dict:
    """Map each partial product over qubits 0..q-1 (a terminal ref, or
    None for the empty product) to its block over qubits q..k-1: the
    power of ``factor`` over those qubits, scaled by the prefix.

    ``prefixes`` are distinct and in order of first appearance, and the
    products over qubit q are interned in that order, prefix by prefix.
    """
    if q == k:
        return {p: p for p in prefixes}
    value = m.value
    kids = {p: factor if p is None else
            tuple(m.terminal(value(p) * value(f)) for f in factor)
            for p in prefixes}
    below = _blocks(m, q + 1, k, factor,
                    dict.fromkeys(c for cs in kids.values() for c in cs))
    row, col = 2 * q, 2 * q + 1
    return {p: m.node(row, m.node(col, below[a], below[b]),
                      m.node(col, below[c], below[d]))
            for p, (a, b, c, d) in kids.items()}


@depth_checked
def hadamard_all(m: QuiddManager, k: int) -> int:
    """H applied to every qubit, as one k-qubit matrix diagram.

    The k-fold tensor power of the one-qubit H: each entry is the product
    of its k factors in qubit order, and every partial product is
    interned as a terminal, a qubit at a time.  One recursion level per
    qubit, so a k too deep for the recursion limit raises
    :class:`DiagramDepthError`.
    """
    _check_k(k)
    h = 1.0 / math.sqrt(2.0)
    factor = tuple(m.terminal(z) for z in (h, h, h, -h))
    return _blocks(m, 0, k, factor, (None,))[None]


def diffusion(m: QuiddManager, k: int) -> int:
    """Inversion about the mean, 2|u><u| - I for the uniform state u.

    Built from its closed form, 2/2^k off the diagonal and 2/2^k - 1 on
    it, a qubit at a time from the last.  Over qubits q..k-1, a block on
    the diagonal holds the diagonal block over qubits q+1..k-1 in its two
    diagonal quadrants and the constant 2/2^k in the other two.  So the
    diagram has 3 internal nodes per qubit and two terminals, and the
    build neither recurses nor makes an intermediate diagram.
    """
    _check_k(k)
    c = math.ldexp(2.0, -k)
    off = m.terminal(c)
    cur = m.terminal(c - 1.0)
    for q in range(k - 1, -1, -1):
        row, col = 2 * q, 2 * q + 1
        cur = m.node(row, m.node(col, cur, off), m.node(col, off, cur))
    return cur
