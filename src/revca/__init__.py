"""revca: construct reversible 1D binary cellular automaton rules from
stability patterns, and verify them with an independent injectivity oracle.

The package root exports the names of the library example in the README;
everything else lives in the modules ``patterns``, ``rules``, ``engine``,
``injectivity``, ``catalog`` and ``cli``.
"""

from .patterns import build_mixture, generate_all_patterns
from .rules import induce, to_wolfram
from .engine import step
from .injectivity import debruijn_injective, exhaustive_injective

__version__ = "0.1.0"
