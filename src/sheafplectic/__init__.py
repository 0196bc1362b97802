"""Exact algebra for module sheaves on finite topological spaces.

The names below are loaded on first use (PEP 562): importing the package,
or one of its modules, compiles only the modules that are actually used.
"""

import importlib

_EXPORTS = {
    "exactalg": ("AmbientMismatch", "FpElement", "Matrix", "PrimeField", "QQ",
                 "RationalField", "Subspace", "kernel_basis",
                 "orthogonal_complement", "rank_of", "solve",
                 "subspace_intersection", "subspace_sum"),
    "space": ("Cover", "FiniteSpace", "UnknownPoint", "validate_topology"),
    "sheaf": ("ExplicitPresheaf", "FreeModuleSheaf", "MorphismSheaf",
              "OverlapMismatch", "PairingSheaf", "ParentMismatch",
              "QuotientSheaf", "Section", "SubmoduleSheaf", "TwoFormSheaf",
              "check_completeness", "full_submodule", "glue",
              "intersect_submodules", "quotient", "sections_basis",
              "sections_presheaf", "sheafify", "sum_submodules",
              "zero_submodule"),
    "pairing": ("Degenerate", "NotInvariant", "annihilator",
                "canonical_pairing", "check_hom_exactness",
                "induced_endomorphism", "induced_pairing", "is_nondegenerate",
                "quotient_dual_iso", "theta", "transpose_endomorphism",
                "transpose_morphism"),
    "symplectic": ("BadSeed", "DarbouxResult", "NoAdmissibleNeighborhood",
                   "NotCoisotropic", "NotLagrangian", "RankNotConstant",
                   "ReducedModule", "SymplecticModule", "ZeroFormAt",
                   "classify", "contract", "darboux", "flat", "form_rank",
                   "lagrangian_complement", "reduce", "reduce_lagrangian",
                   "standard_form"),
}
_SUBMODULES = ("cli", "exactalg", "oracle", "pairing", "sheaf", "space",
               "suites", "symplectic")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__),
                        name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
