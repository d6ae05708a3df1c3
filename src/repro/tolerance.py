"""Scalar tolerance checks without numpy's array machinery.

``np.isclose`` and ``np.allclose`` build arrays even for two scalars,
which costs microseconds per call; :func:`isclose` is the same test in
plain float arithmetic, for checks that run once per attribute.
"""

from __future__ import annotations

import math


def isclose(a: float, b: float, rtol: float = 1e-5, atol: float = 1e-8) -> bool:
    """``np.isclose(a, b, rtol, atol)`` for two scalars.

    True when ``|a − b| ≤ atol + rtol·|b|`` with both finite, or when
    ``a == b`` (equal infinities); NaN is close to nothing. Like numpy's
    test it is not symmetric in ``a`` and ``b``.
    """
    a, b = float(a), float(b)
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= atol + rtol * abs(b)
    return a == b
