"""Exact construction and certification of frontal map-germs.

The kernel is an exact sparse polynomial ring over Q (optionally over
Q(6^(1/k))); on top of it sit Jacobian/adjugate calculus, the
Jacobian-squared frontal construction with certified conormal fields,
jet-level ramification-module membership with re-checkable witnesses, local
algebra multiplicities, and a corpus replaying the classical normal-form
reductions (fold, cuspidal edge, umbrellas, swallowtails, the 4_k family)
by literal composition.
"""

from .scalars import ExtField, ExtScalar, Scalar
from .poly import (
    Poly,
    PolyError,
    PolyParseError,
    VariableMismatchError,
    parse_poly,
    sum_of_products,
)
from .maps import (
    Covector,
    PolyMap,
    PolyMatrix,
    adjugate,
    compose,
    differential,
    jacobian_adjugate,
    jacobian_det,
    jacobian_matrix,
)
from .frontal import (
    CertifyReport,
    Conormal,
    FrontalPackage,
    build_certified,
    build_frontal,
    certify_frontal,
    conormals,
)
from .local_algebra import MultiplicityResult, multiplicity
from .ramification import (
    GradientCertificate,
    MembershipVerdict,
    PullbackCertificate,
    gradient_module_membership,
    jsq_plus_pullback_membership,
)
from . import corpus
from .germfile import GermFile, GermFileError, load_germ_file, parse_germ_file
from .mesh import build_obj, frontal_surface

__version__ = "0.1.0"

__all__ = [
    "ExtField", "ExtScalar", "Scalar",
    "Poly", "PolyError", "PolyParseError", "VariableMismatchError",
    "parse_poly", "sum_of_products",
    "Covector", "PolyMap", "PolyMatrix", "adjugate", "compose",
    "differential", "jacobian_adjugate", "jacobian_det",
    "jacobian_matrix",
    "CertifyReport", "Conormal", "FrontalPackage", "build_certified",
    "build_frontal", "certify_frontal", "conormals",
    "MultiplicityResult", "multiplicity",
    "GradientCertificate", "MembershipVerdict", "PullbackCertificate",
    "gradient_module_membership", "jsq_plus_pullback_membership",
    "corpus",
    "GermFile", "GermFileError", "load_germ_file", "parse_germ_file",
    "build_obj", "frontal_surface",
]
