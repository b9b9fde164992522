"""specto: spectral stability and robustness analysis for recurrent weights.

Quantifies learned weight matrices three ways: the eigen-spectrum (dynamic
stability vs the unit disk), non-normality indices (Henrici number, Schur
departure), and the eps-pseudospectrum (robustness to bounded
perturbations, Kreiss bounds on transient growth). A small recurrent-cell
lab trains RNN/LSTM/GRU cells at desk scale so the full
train -> analyze -> stabilize -> compare pipeline runs end to end.

The package exports exactly the ``__all__`` names of its modules.
"""

from . import containers, errors, matrix, nonnormality, pseudospectrum, report, stabilizer
from .containers import *
from .errors import *
from .matrix import *
from .nonnormality import *
from .pseudospectrum import *
from .report import *
from .stabilizer import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *matrix.__all__,
    *nonnormality.__all__,
    *pseudospectrum.__all__,
    *stabilizer.__all__,
    *containers.__all__,
    *report.__all__,
    "__version__",
]
