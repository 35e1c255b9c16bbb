"""Conditional divergence risk measures on finite probability spaces.

The package computes conditional optimized certainty equivalents and their
dual representation by penalized expectations, conditional phi-divergences
with their variational (Donsker-Varadhan style) form, and the translation
completion turning monotone concave conditional operators into niveloids.
Primal and dual share one multiplier search; ``condrisk gap`` checks their
values at it, while ``entropic_risk``, ``dual_bruteforce`` and
``niveloidify_bruteforce`` are the independent oracles.
"""

from . import divergence, dual, niveloid, oce, probspace
from .divergence import *
from .dual import *
from .niveloid import *
from .oce import *
from .probspace import *
from .scalar_opt import SolverError, UnboundedObjective

__version__ = "0.1.0"

__all__ = [
    *probspace.__all__,
    *divergence.__all__,
    *oce.__all__,
    *dual.__all__,
    *niveloid.__all__,
    "SolverError",
    "UnboundedObjective",
    "__version__",
]
