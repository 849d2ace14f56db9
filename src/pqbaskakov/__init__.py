"""Post-quantum (p,q)-calculus primitives and Baskakov-Beta operators.

The package is organized bottom-up:

* :mod:`pqbaskakov.core`       - (p,q)-numbers, factorials, binomials, the
  integer-argument Gamma and Beta functions, the deformed power basis, and
  the (p,q)-difference quotient.
* :mod:`pqbaskakov.functions`  - target-function descriptions.
* :mod:`pqbaskakov.quadrature` - Jackson integration on [0, a] and [0, inf).
* :mod:`pqbaskakov.baskakov`   - the Baskakov basis and both operators,
  with closed, semi-analytic and quadrature evaluation routes.
* :mod:`pqbaskakov.analysis`   - moduli of continuity, rate bounds, and
  weighted convergence experiments.
* :mod:`pqbaskakov.cli`        - the ``pqbaskakov`` command line front end.

Each module's ``__all__`` is the one list of its public names, and
``pqbaskakov.__all__`` is ``"__version__"`` followed by those lists.

All computational functions are pure and safe to evaluate concurrently: no
call leaves state in a module (the cell table lives for one ``with`` block).
"""

from . import core, functions, quadrature, baskakov, analysis, cli
from .core import *
from .functions import *
from .quadrature import *
from .baskakov import *
from .analysis import *
from .cli import *

__version__ = "0.1.0"

# the `__all__ += module.__all__` form is the one type checkers read
__all__ = ["__version__"]
__all__ += core.__all__
__all__ += functions.__all__
__all__ += quadrature.__all__
__all__ += baskakov.__all__
__all__ += analysis.__all__
__all__ += cli.__all__
