"""Truncated single-mode ladder operators and exponential vectors.

A truncation keeping occupation numbers 0..n_max realizes the one-mode
restriction of the bosonic noise algebra at desk scale.  The truncated
ladder pair satisfies the canonical commutation relation everywhere except
in the top retained level, where [a, a†] = I - (n_max + 1)|n_max><n_max|.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidOperatorError


def ladder_operators(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation, creation and number operators on the (n_max+1)-level mode.

    a|n> = sqrt(n)|n-1> for 1 <= n <= n_max and a|0> = 0; the creation
    operator is the adjoint, and number = a† a = diag(0, 1, ..., n_max).
    """
    if n_max < 0:
        raise InvalidOperatorError("n_max must be nonnegative")
    dim = n_max + 1
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    a_dag = a.conj().T
    number = a_dag @ a
    return a, a_dag, number


def vacuum_vector(n_max: int) -> np.ndarray:
    """The |0> occupation basis vector of the truncated mode."""
    v = np.zeros(n_max + 1, dtype=complex)
    v[0] = 1.0
    return v


def exponential_vector(alpha: complex, n_max: int) -> np.ndarray:
    """Truncated exponential vector with components alpha^n / sqrt(n!).

    Unnormalized by design: the inner product of two such vectors is the
    partial sum of the series for exp(conj(alpha) * beta), so
    exponential_vector(0, n_max) is exactly the vacuum vector.
    """
    if n_max < 0:
        raise InvalidOperatorError("n_max must be nonnegative")
    out = np.zeros(n_max + 1, dtype=complex)
    term = 1.0 + 0.0j
    out[0] = term
    for n in range(1, n_max + 1):
        # alpha^n / sqrt(n!) built incrementally to avoid overflow in n!
        term = term * alpha / math.sqrt(n)
        out[n] = term
    return out


def exponential_inner_tail_bound(alpha: complex, beta: complex, n_max: int) -> float:
    """Upper bound on the truncation error of <e(alpha), e(beta)>.

    Bounds | exp(conj(alpha) beta) - partial sum | by the absolute tail
    sum_{n > n_max} |conj(alpha) beta|^n / n!, evaluated with 200 further
    terms (plenty for |alpha|,|beta| of a few units).
    """
    z = abs(np.conj(alpha) * beta)
    total = 0.0
    term = 1.0
    for n in range(1, n_max + 201):
        term = term * z / n
        if n > n_max:
            total += term
    return total
