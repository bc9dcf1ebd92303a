"""Numerical laboratory for quantitative ergodicity of Markov processes.

Subpackages cover the full experimental pipeline: rate calculus for
subexponential bounds (:mod:`ergolab.rates`), smooth Lyapunov functions and
numeric generator application (:mod:`ergolab.lyapunov`), simulatable process
families (:mod:`ergolab.processes`), empirical Wasserstein distances
(:mod:`ergolab.wasserstein`), synchronous-coupling contraction estimates
(:mod:`ergolab.coupling`), matching lower bounds (:mod:`ergolab.lowerbound`),
rate transfer under random time change (:mod:`ergolab.subordination`), and a
command-line experiment driver (:mod:`ergolab.cli`).
"""

from __future__ import annotations

__version__ = "0.1.0"

# numpy 2 loads these submodules on first use: numpy.random at the first
# generator, numpy.ma under np.unique (so np.union1d and np.percentile too)
# and numpy.polynomial at the first Gauss–Legendre rule.  Importing any
# ergolab module loads them here, so no run pays for them midway.
import numpy.ma  # noqa: E402, F401
import numpy.polynomial  # noqa: E402, F401
import numpy.random  # noqa: E402, F401
