"""Five-diagonal unitary quantum walk on the integers.

Exact lattice and momentum-space evolution, closed-form long-time limit
densities, and quantitative convergence checks between the two.
"""

from . import fourier, harness, limitlaw, walk
from .fourier import *
from .harness import *
from .limitlaw import *
from .walk import *

__version__ = "0.1.0"

__all__ = [
    *walk.__all__,
    *fourier.__all__,
    *limitlaw.__all__,
    *harness.__all__,
    "__version__",
]
