"""The matrix exponential of :func:`qstab.evolve.master_evolve`: scaling and squaring with Pade approximants.

Al-Mohy & Higham, "A new scaling and squaring algorithm for the matrix
exponential", SIAM J. Matrix Anal. Appl. 31 (2009), Algorithm 5.1, with exact
1-norms in place of estimates (the oracle's n = d^2 is at most about 10^3).
The Pade degree m in {3, 5, 7, 9, 13} and the number s of squarings are chosen
from ||A^k||^(1/k), which for a non-normal A can lie far below ||A||, and
r_m(2^-s A) is squared s times.  A diagonal input takes exp of its diagonal.  A
triangular one, as every Fock-damping Liouvillian is, gets their Code Fragment
2.1: the diagonal and first off-diagonal are recomputed exactly after every
squaring, so they carry no error from the squarings.

The selection runs on A scaled by a power of two to a 1-norm at most 1, which
changes no rounding, so no power of A overflows at any step size; a non-finite
1-norm gives NaN.  Over- and underflow show in the result, never as warnings.
:mod:`qstab.evolve` imports this module only when the oracle runs.
"""

from __future__ import annotations

import math

import numpy as np

# theta_m: the largest ||A^k||^(1/k) bound at which r_m meets the unit roundoff (Al-Mohy & Higham 2009, Table 3.1).
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}
# Coefficients b_0..b_m of the [m/m] Pade numerator, scaled to b_m = 1 (Higham 2005), and 1/|c_(2m+1)| of the
# leading term of its backward error series, (2m)! (2m+1)! / (m!)^2, both exact integers before rounding to float.
_PADE = {m: [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))) for j in range(m + 1)]
         for m in _THETA}
_ERROR_COEFF = {m: float(math.factorial(2 * m) * math.factorial(2 * m + 1) // math.factorial(m) ** 2) for m in _THETA}


def _norm1(x: np.ndarray) -> float:
    return float(np.abs(x).sum(axis=0).max())


def _ldexp(x: np.ndarray, k: int) -> np.ndarray:
    """x * 2^k, rounded only where it leaves the normal range (np.ldexp takes a complex array as its float view)."""
    if k == 0:
        return x
    x = np.ascontiguousarray(x)
    return np.ldexp(x.view(x.real.dtype), k).view(x.dtype)


def _pade_order(b: np.ndarray, t: int, norm_b: float) -> tuple[int, int, list[np.ndarray]]:
    """Degree m and squarings s for A = 2^t b, ||b||_1 = norm_b <= 1, with the powers b^2, b^4, ... that r_m reads.

    d_k = ||A^k||^(1/k) = 2^t ||b^k||^(1/k).  Degrees 3 to 9 are taken at s = 0 where eta bounds below theta_m and
    l(A, m) = 0; otherwise m = 13 and s brings min(max(d6, d8), max(d8, d10)) to theta_13, plus l(2^-s A, 13).
    """
    abs_b, sums = np.abs(b), []  # sums[p - 1]: the column sums of |b|^p

    def ell(k, m):  # l(2^k b, m) of Al-Mohy & Higham (2009, eq. 5.3), from the exact 1-norm of |b|^(2m+1)
        while len(sums) < 2 * m + 1:
            sums.append(sums[-1] @ abs_b if sums else abs_b.sum(axis=0))
        top = sums[2 * m].max()
        if not top > 0:
            return 0
        # alpha(2^k b) = 2^(2mk) alpha(b), in logarithms, since alpha itself may underflow
        log2_alpha = math.log2(top) - math.log2(_ERROR_COEFF[m] * norm_b)
        return max(k + math.ceil((log2_alpha + 53) / (2 * m)), 0)

    powers = [b @ b]
    powers.append(powers[0] @ powers[0])
    powers.append(powers[0] @ powers[1])
    d4, d6 = _norm1(powers[1]) ** (1 / 4), _norm1(powers[2]) ** (1 / 6)
    for m in (3, 5):
        if math.ldexp(max(d4, d6), t) < _THETA[m] and ell(t, m) == 0:
            return m, 0, powers[: (m - 1) // 2]
    powers.append(powers[1] @ powers[1])
    d8 = _norm1(powers[3]) ** (1 / 8)
    for m in (7, 9):
        if math.ldexp(max(d6, d8), t) < _THETA[m] and ell(t, m) == 0:
            return m, 0, powers[: (m - 1) // 2]
    d10 = _norm1(powers[1] @ powers[2]) ** (1 / 10)
    ratio = min(max(d6, d8), max(d8, d10)) / _THETA[13]
    s = max(t + math.ceil(math.log2(ratio)), 0) if ratio > 0 else 0
    return 13, s + ell(t - s, 13), powers[:3]


def _pade(x: np.ndarray, powers: list[np.ndarray], m: int) -> np.ndarray:
    """r_m(x) = (V - U)^-1 (V + U), taken as I + 2 (V - U)^-1 U so that rounding in the solve scales with U, not
    with I (over 200 steps of a trace-preserving propagator, the first form lost 2.5 times as much trace).  Degree
    13 in Higham's (2005) nested form."""
    c = _PADE[m]

    def poly(first, lowest):  # sum of c[first + 2j] x^2j over j >= lowest, highest power first, j = 0 on the diagonal
        total = c[first + 2 * len(powers)] * powers[-1]
        for j in range(len(powers) - 1, max(lowest, 1) - 1, -1):
            total += c[first + 2 * j] * powers[j - 1]
        if lowest == 0:
            total.flat[:: len(x) + 1] += c[first]
        return total

    odd, even = poly(1, 0), poly(0, 0)
    if m == 13:  # the terms of degree 8 to 13 as x^6 times those of degree 2 to 7
        odd += powers[2] @ poly(7, 1)
        even += powers[2] @ poly(6, 1)
    u = x @ odd
    try:
        r = 2 * np.linalg.solve(even - u, u)
    except np.linalg.LinAlgError:  # an input of extreme dynamic range, whose powers or elimination overflow
        return np.full_like(u, np.nan)
    r.flat[:: len(x) + 1] += 1
    return r


def _exp_divided_difference(z: np.ndarray) -> np.ndarray:
    """The divided difference (e^z2 - e^z1) / (z2 - z1) of each adjacent pair, e^z1 where they are equal."""
    dz = np.diff(z)
    same = dz == 0
    return np.where(same, np.exp(z[:-1]), np.diff(np.exp(z)) / np.where(same, 1, dz))


@np.errstate(all="ignore")
def expm(a) -> np.ndarray:
    """exp(a) of a square array (see the module docstring)."""
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    nonzero, below = a != 0, np.tri(len(a), k=-1, dtype=bool)
    lower, upper = (nonzero & below).any(), (nonzero & below.T).any()
    if not (lower or upper):
        return np.diag(np.exp(np.diag(a)))
    norm = _norm1(a)
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    t = max(math.frexp(norm)[1], 0)
    b = _ldexp(a, -t)
    m, s, powers = _pade_order(b, t, math.ldexp(norm, -t))
    x = _pade(_ldexp(b, t - s), [_ldexp(p, 2 * (j + 1) * (t - s)) for j, p in enumerate(powers)], m)
    if lower and upper:
        for _ in range(s):
            x = x @ x
        return x
    # Code Fragment 2.1: exact diagonal and first off-diagonal of exp(2^-i a) after each squaring.
    diag, off_diag = np.diag(a), np.diag(a, 1 if upper else -1)
    rows = np.arange(len(a))
    off = (rows[:-1], rows[1:]) if upper else (rows[1:], rows[:-1])
    x[rows, rows] = np.exp(_ldexp(diag, -s))
    for i in range(s - 1, -1, -1):
        x = x @ x
        scaled = _ldexp(diag, -i)
        x[rows, rows] = np.exp(scaled)
        x[off] = _exp_divided_difference(scaled) * _ldexp(off_diag, -i)
    return np.triu(x) if upper else np.tril(x)
