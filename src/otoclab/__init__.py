"""Numerical laboratory for chaos signatures of quantized torus maps.

Builds quantized cat, standard, and Harper maps, computes out-of-time
ordered correlators under unitary or translation-dephased dynamics, and
extracts the classical quantities that govern the two OTOC regimes: the
Lyapunov exponent (short-time growth) and the leading Ruelle-Pollicott
resonances (long-time decay).
"""

# the public namespace is exactly the union of the library modules' __all__
from .phase_space import *  # noqa: F403
from .maps import *  # noqa: F403
from .classical import *  # noqa: F403
from .otoc import *  # noqa: F403
from .coarse_graining import *  # noqa: F403
from .resonances import *  # noqa: F403

__version__ = "0.1.0"
