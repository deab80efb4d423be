"""Gate constructors for Grover runs.

All gates are matrix diagrams over the interleaved row/column variable
order.  The inversion-about-mean operator is built directly from its
closed form (2/2^k off the diagonal, 2/2^k - 1 on it) rather than by
composing Hadamard sandwiches.  The composed construction, and the
phase shift about zero that it needs, live only in the tests, as a
cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .quidd import QuiddError, QuiddManager, matrix_space


class GateSizeError(QuiddError):
    """Gate requested for a non-positive qubit count."""


def _check_k(k: int) -> None:
    if k < 1:
        raise GateSizeError(f"gates need at least one qubit, got {k}")


def hadamard_all(m: QuiddManager, k: int) -> int:
    """H applied to every qubit, as one k-qubit matrix diagram."""
    _check_k(k)
    h1 = m.from_dense(
        np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), matrix_space(1))
    g = h1
    for i in range(1, k):
        g = m.tensor(g, h1, i)
    return g


def identity_gate(m: QuiddManager, k: int) -> int:
    _check_k(k)
    i1 = m.from_dense(np.eye(2), matrix_space(1))
    g = i1
    for i in range(1, k):
        g = m.tensor(g, i1, i)
    return g


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

