"""Strategyproof single-facility location on the real line under L_p cost.

A mechanism places one facility given n reported locations; agents pay the
distance to it, and the planner aggregates distances with an L_p norm
(p = inf for the max). This package bundles the classic mechanism catalog
(medians, dictators, the optimum, two-agent lotteries), exact optimal
locations, misreport hunting, approximation-ratio measurement, and numerical
lower-bound certificates, plus a command line front end (`lpfacility`).
"""

from . import core, mechanisms, optimizer, verification
from .core import *  # noqa: F403
from .mechanisms import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .verification import *  # noqa: F403

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.
__all__ = ["__version__", *core.__all__, *mechanisms.__all__, *optimizer.__all__, *verification.__all__]
