"""Recurrent cells, their task data and the training loop; exports exactly their modules' ``__all__`` names."""

from . import cells, datasets, training
from .cells import *
from .datasets import *
from .training import *

__all__ = [*cells.__all__, *datasets.__all__, *training.__all__]
