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
