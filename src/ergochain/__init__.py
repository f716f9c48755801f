"""Ergotropy transport along engineered XX spin chains.

A simulator for sending extractable work through a 1-D spin chain: prepare a
qubit at one end, let the single excitation propagate, and ask how much work
the far-end qubit can deliver. The chain's bonds interpolate between a
uniform profile and the parabolic profile with perfect end-to-end state
transfer; coherent and incoherent sender encodings with equal input
ergotropy can be compared cleanly, with and without bond disorder, along
with the full quench work statistics.
"""

__version__ = "0.1.0"

from . import chain, disorder, dynamics, ergotropy, errors, spectral, workstats
from .chain import *
from .disorder import *
from .dynamics import *
from .ergotropy import *
from .errors import *
from .spectral import *
from .workstats import *

__all__ = [
    "__version__",
    *errors.__all__,
    *chain.__all__,
    *spectral.__all__,
    *dynamics.__all__,
    *ergotropy.__all__,
    *disorder.__all__,
    *workstats.__all__,
]
