"""Numerical toolkit for the Wick-renormalized cubic Schrodinger flow on the
one-dimensional torus with rough Gaussian forcing.

Layout: `fields` holds truncated Fourier data and the free propagator,
`noise` the Gaussian forcing layer (smoothing operators, stochastic
convolution, exact-in-law sampling), `norms` the Fourier-Lebesgue /
Hilbert-Schmidt / windowed restriction-norm surrogates, `dynamics` the
renormalized nonlinearity and time steppers, `lab` the estimate experiments
(tail fits, variance law, trilinear and multiplier scans, lattice sums,
criticality arithmetic), and `cli` the reproducible experiment runner.

Each layer declares its public names once, in its own `__all__`; the package
re-exports them from there.

Importing the package defaults `OPENBLAS_NUM_THREADS` to 1 before numpy
loads: OpenBLAS otherwise starts a spinning helper thread per extra core,
which no run uses, and a threaded dense complex product (a noise matrix
applied by `convolution_paths_block`) changes its last bits with the thread
count.  A value already set wins.  A process that imported numpy before
wickns keeps the pool it started with.
"""

import os as _os

_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .fields import *
from .noise import *
from .norms import *
from .dynamics import *
from .lab import *
from .config import *
from .manifest import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
