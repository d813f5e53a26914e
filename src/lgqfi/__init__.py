"""lgqfi: temporal correlations, quantum Fisher information, certified bounds.

A numerical laboratory for small quantum systems linking three-time
(Leggett-Garg) correlation combinations of a bounded observable to lower
bounds on the quantum Fisher information, with exactly solvable reference
models (thermal qubit, transverse-field chain, GHZ), response-function
sum rules, and measurement-protocol simulations.

Each module declares its public names once, in its own ``__all__``; the
package republishes them all.
"""

from . import bounds, errors, kernels, linalg, models, protocols, response, spectral
from .errors import *
from .linalg import *
from .models import *
from .kernels import *
from .spectral import *
from .bounds import *
from .response import *
from .protocols import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += linalg.__all__
__all__ += models.__all__
__all__ += kernels.__all__
__all__ += spectral.__all__
__all__ += bounds.__all__
__all__ += response.__all__
__all__ += protocols.__all__
