"""Verification tools: misreport hunting, ratio measurement, certificates."""

from . import certificates, deviation, ratio, reports

__all__ = [*certificates.__all__, *deviation.__all__, *ratio.__all__, *reports.__all__]

# `ratio` ends up the function, as it must: it shadows the submodule.
from .certificates import *  # noqa: E402,F403
from .deviation import *  # noqa: E402,F403
from .ratio import *  # noqa: E402,F403
from .reports import *  # noqa: E402,F403
