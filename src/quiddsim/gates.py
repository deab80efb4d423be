"""Gate constructors for Grover runs.

All gates are matrix diagrams over the interleaved row/column variable
order.  H on every qubit and the identity are tensor powers of a
one-qubit factor that is interned node by node, with no dense array.
The inversion-about-mean operator is built directly from its closed
form (2/2^k off the diagonal, 2/2^k - 1 on it) rather than by composing
Hadamard sandwiches.  The composed construction, and the
phase shift about zero that it needs, live only in the tests, as a
cross-check.
"""

from __future__ import annotations

import math

from .quidd import QuiddError, QuiddManager


class GateSizeError(QuiddError):
    """Gate requested for a non-positive qubit count."""


def _check_k(k: int) -> None:
    if k < 1:
        raise GateSizeError(f"gates need at least one qubit, got {k}")


def _power(m: QuiddManager, k: int, m00, m01, m10, m11) -> int:
    """The k-fold tensor power of the 2x2 matrix [[m00, m01], [m10, m11]].

    The one-qubit factor is interned in the order ``from_dense`` would
    use (row variable 0 above column variable 1), so refs and node
    counts are those of the dense build.
    """
    _check_k(k)
    row0 = m.node(1, m.terminal(m00), m.terminal(m01))
    row1 = m.node(1, m.terminal(m10), m.terminal(m11))
    g1 = m.node(0, row0, row1)
    g = g1
    for i in range(1, k):
        g = m.tensor(g, g1, i)
    return g


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
    off = 2.0 / (1 << k)
    return m.apply("add", m.terminal(off),
                   m.scalar_mul(-1.0, identity_gate(m, k)))

