"""Numerical laboratory for small-noise large deviations of SDEs whose
singular drift is tamed by a drift-removing change of variables.

The package's names are its layer modules' ``__all__`` lists."""

from .expr import *
from .model import *
from .problems import *
from .zvonkin import *
from .simulate import *
from .action import *
from .ldp import *

__version__ = "0.1.0"
