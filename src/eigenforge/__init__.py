"""eigenforge: exact calculus for polynomial eigenfamilies.

A family of complex polynomials F_a on R^m = C^n x R^r is an
eigenfamily when every product F_a F_b is a Laplace eigenfunction and
every conformality bracket k(F_a, F_b) is proportional to F_a F_b.
This package verifies, analyzes, reduces, constructs, and classifies
such families with exact rational arithmetic.
"""

from .scalars import GaussRational, scalar
from .frames import VariableFrame
from .poly import Poly

__version__ = "0.1.0"

__all__ = ["GaussRational", "scalar", "VariableFrame", "Poly", "__version__"]
