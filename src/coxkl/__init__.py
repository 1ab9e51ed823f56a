"""
coxkl: exact Kazhdan-Lusztig combinatorics for finite Coxeter groups.

Layers, bottom to top: integer Laurent polynomials (`laurent`), finite
Coxeter systems with Bruhat and parabolic-coset machinery (`coxeter`), the
Hecke algebra with its canonical basis and memoized KL table (`hecke`),
singular-block dimension tables (`blocks`), hard-Lefschetz consistency
checks (`lefschetz`) and a batch CLI (`cli`).  The package exports exactly
the names in the `__all__` lists of the first five; `cli` is not re-exported.
"""
from .laurent import *
from .coxeter import *
from .hecke import *
from .blocks import *
from .lefschetz import *

__version__ = "0.1.0"

# Each star import also binds its submodule here, as asyncio/__init__.py relies on.
__all__ = laurent.__all__ + coxeter.__all__ + hecke.__all__ + blocks.__all__ + lefschetz.__all__
