"""Gate constructors for Grover runs.

All gates are matrix diagrams over the interleaved row/column variable
order.  H on every qubit and the identity are tensor powers of a
one-qubit factor, built in one pass over the qubits with no dense array
and no general tensor product.  The inversion-about-mean operator is
built directly from its closed form (2/2^k off the diagonal, 2/2^k - 1
on it) rather than by composing Hadamard sandwiches.  The composed
construction, and the phase shift about zero that it needs, live only
in the tests, as a dense cross-check.
"""

from __future__ import annotations

import math

from .quidd import QuiddError, QuiddManager, depth_checked


class GateSizeError(QuiddError):
    """Gate requested for a non-positive qubit count."""


def _check_k(k: int) -> None:
    if k < 1:
        raise GateSizeError(f"gates need at least one qubit, got {k}")


@depth_checked
def _power(m: QuiddManager, k: int, m00, m01, m10, m11) -> int:
    """The k-fold tensor power of the 2x2 matrix [[m00, m01], [m10, m11]].

    Each entry is the product of its k factors in qubit order, and every
    partial product is interned as a terminal, a qubit at a time.  One
    recursion level per qubit, so a k too deep for the recursion limit
    raises :class:`DiagramDepthError`.
    """
    _check_k(k)
    factor = tuple(m.terminal(z) for z in (m00, m01, m10, m11))
    return _blocks(m, 0, k, factor, (None,))[None]


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


def hadamard_all(m: QuiddManager, k: int) -> int:
    """H applied to every qubit, as one k-qubit matrix diagram."""
    h = 1.0 / math.sqrt(2.0)
    return _power(m, k, h, h, h, -h)


def identity_gate(m: QuiddManager, k: int) -> int:
    return _power(m, k, 1.0, 0.0, 0.0, 1.0)


def diffusion(m: QuiddManager, k: int) -> int:
    """Inversion about the mean, 2|u><u| - I for the uniform state u.

    Built entrywise: a constant 2/2^k background plus -1 on the diagonal.
    The diagram has the same shape as the identity, so it stays linear
    in k no matter how large the register is.
    """
    _check_k(k)
    off = math.ldexp(2.0, -k)
    return m.apply("add", m.terminal(off),
                   m.scalar_mul(-1.0, identity_gate(m, k)))
