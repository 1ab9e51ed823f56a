"""
coxkl: exact Kazhdan-Lusztig combinatorics for finite Coxeter groups.

Layers, bottom to top: integer Laurent polynomials (`laurent`), finite
Coxeter systems with Bruhat and parabolic-coset machinery (`coxeter`), the
Hecke algebra with its canonical basis and memoized KL table (`hecke`),
singular-block dimension tables (`blocks`), hard-Lefschetz consistency
checks (`lefschetz`) and a batch CLI (`cli`).
"""
from .laurent import LaurentPoly
from .coxeter import (
    Coset,
    CoxeterError,
    CoxeterSystem,
    Element,
    InfiniteGroupError,
)
from .hecke import HeckeAlgebra, HeckeElt, MalformedKL
from .blocks import (
    BlockData,
    DimTable,
    andersen_dims,
    andersen_table,
    equivariant_hom_series,
    make_block,
    total_hom_dim,
)
from .lefschetz import (
    AuditResult,
    IHReport,
    LefschetzReport,
    ih_poincare,
    lefschetz_audit,
    local_lefschetz_poly,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "Coset",
    "CoxeterError",
    "CoxeterSystem",
    "Element",
    "InfiniteGroupError",
    "HeckeAlgebra",
    "HeckeElt",
    "MalformedKL",
    "BlockData",
    "DimTable",
    "andersen_dims",
    "andersen_table",
    "equivariant_hom_series",
    "make_block",
    "total_hom_dim",
    "AuditResult",
    "IHReport",
    "LefschetzReport",
    "ih_poincare",
    "lefschetz_audit",
    "local_lefschetz_poly",
]
