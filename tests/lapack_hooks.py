"""Stand-ins for the LAPACK ``dlasq1`` handle of ``ergochain.spectral``.

``spectral._lasq1`` is a ``ctypes`` function called as
``_lasq1(size, d, e, work, info)``: ``size`` and ``info`` are of the ctypes
integer type the handle carries as ``_lasq1.integer``, and the arrays are
addresses. The tests that break, count or watch the solver wrap it here; a
stand-in carries ``integer`` on (``functools.wraps``). Imported by the test
modules, which run with this directory on ``sys.path``.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from ergochain import spectral


def hooked_lasq1(edit, orders=None):
    """A stand-in that runs ``spectral._lasq1``, then ``edit(values, info)``.

    ``values`` is the call's output, the singular values (descending), as a
    writable array view, and ``info`` its ctypes integer status; ``edit``
    may change either in place. Each call's order is appended to ``orders``
    when it is given.
    """
    original = spectral._lasq1

    @functools.wraps(original)
    def hooked(size, d, e, work, info):
        original(size, d, e, work, info)
        if orders is not None:
            orders.append(size.value)
        edit(np.ctypeslib.as_array((ctypes.c_double * size.value).from_address(d)), info)

    return hooked


def report_failure(values, info):
    """An ``edit`` for ``hooked_lasq1``: the output stays valid, ``info`` reads 1."""
    info.value = 1
