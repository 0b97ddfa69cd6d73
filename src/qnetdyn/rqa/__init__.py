"""Recurrence quantification for trajectories in R^n."""

from .core import *  # noqa: F401,F403
from .core import __all__  # noqa: F401
