"""Exact reference values that the library itself does not need.

Imported by the test modules, which run with this directory on ``sys.path``.
"""

from __future__ import annotations

import math


def krawtchouk(k: int, x: int, m: int) -> int:
    """Binary Krawtchouk polynomial K_k(x) on {0..m}, exact integer value.

    K_k(x) = sum_i (-1)^i C(x, i) C(m-x, k-i). Evaluated with exact integer
    arithmetic; no rounding at any size. The arguments are not validated:
    0 <= k, x <= m is the caller's to keep.
    """
    total = 0
    for i in range(max(0, k - (m - x)), min(k, x) + 1):
        total += (-1) ** i * math.comb(x, i) * math.comb(m - x, k - i)
    return total


def mp_end_spectrum(mpmath, bonds, start):
    """40-digit eigenvalues and end weights of the zero-diagonal chain with these bonds.

    Each eigenvalue is Newton's method on det(x - H), by the three-term
    recurrence, from the float value ``start[k]``, until a step is below
    1e-36 of the root (at most six steps); each weight is
    prod_j b_j / prod_(j != k) (E_k - E_j) at those eigenvalues.
    """
    with mpmath.workdps(40):
        squares = [mpmath.mpf(float(b)) ** 2 for b in bonds]
        roots = []
        for guess in start:
            x = mpmath.mpf(float(guess))
            for _ in range(6):
                p0, p1, d0, d1 = mpmath.mpf(1), x, mpmath.mpf(0), mpmath.mpf(1)
                for b2 in squares:
                    p0, p1, d0, d1 = p1, x * p1 - b2 * p0, d1, p1 + x * d1 - b2 * d0
                step = p1 / d1
                x -= step
                if abs(step) <= mpmath.mpf(10) ** -36 * abs(x):
                    break
            roots.append(x)
        product = mpmath.fprod(mpmath.mpf(float(b)) for b in bonds)
        weights = [
            product / mpmath.fprod(e - other for j, other in enumerate(roots) if j != k)
            for k, e in enumerate(roots)
        ]
    return roots, weights
