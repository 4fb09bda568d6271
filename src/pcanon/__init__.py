"""Exact and numeric P-canonical forms of square matrices, with the
closures they buy: minimal polynomials of Kronecker products, product
closures of linear recurrence sequences, and closed-form matrix
exponentials and logarithms.

Scalars live in one of three fields: rationals (`QQ`, exact Fractions),
prime fields (`GF(p)`), or complex doubles (`CC`).  Everything exposed
here keeps exact inputs exact and isolates floating point to the `CC`
routes.
"""

from .errors import (
    AnnihilatorMismatch,
    AnswerTooLarge,
    CharPositive,
    DegreeZero,
    EmptyInput,
    InsufficientData,
    MixedFields,
    NonMonic,
    NonSplitField,
    NotConjugateSymmetric,
    NotReal,
    NumericFieldUnsupported,
    OrderTooLarge,
    ParseError,
    PcanonError,
    PrincipalUndefined,
    ProjectionsInaccurate,
    SingularMatrix,
    ZeroLogClash,
    ZeroPolynomial,
)
from .kronmin import (
    EigSpec,
    ProductClassTable,
    eig_spec_of_matrix,
    eig_spec_of_poly,
    kron_minpoly_direct,
    kron_minpoly_symbolic,
    lrs_product_poly,
    product_class_table,
)
from .linalg import Matrix, companion, kron, minpoly
from .lrs import LinRecSeq, lrs_eval, lrs_min_annihilator, lrs_mul, lrs_prefix
from .matfun import (
    ClosedFormExp,
    RealClosedForm,
    RealExpTerm,
    SpiralExpTerm,
    closedform_eval,
    expm_closed,
    expm_real,
    log_pcf,
    logm,
    realclosedform_eval,
)
from .pcf import (
    Basis,
    PCanonicalForm,
    RealPCF,
    RealTerm,
    SpiralTerm,
    pcf_build,
    pcf_eval,
    pcf_minpoly,
    pcf_realify,
    pcf_to_gamma,
    pcf_to_lambda,
    realpcf_eval,
)
from .scalar import (
    CC,
    GF,
    QQ,
    FactoredPoly,
    Field,
    FpElement,
    Poly,
    format_complex,
    is_prime,
    poly_factor,
    stirling_first,
    stirling_second,
)
from .wedge import WedgeContext, wedge, wedge_fold

__all__ = [
    # fields and polynomials
    "QQ", "CC", "GF", "Field", "FpElement", "Poly", "FactoredPoly",
    "poly_factor",
    "format_complex", "is_prime",
    "stirling_first", "stirling_second",
    # matrices and spectra
    "Matrix", "kron", "companion", "minpoly",
    # canonical forms
    "Basis", "PCanonicalForm", "RealPCF", "RealTerm", "SpiralTerm",
    "pcf_build", "pcf_eval", "pcf_to_gamma", "pcf_to_lambda", "pcf_minpoly",
    "pcf_realify", "realpcf_eval",
    # wedge dimensions
    "WedgeContext", "wedge", "wedge_fold",
    # Kronecker products and recurrences
    "EigSpec", "ProductClassTable", "eig_spec_of_poly", "eig_spec_of_matrix",
    "product_class_table", "kron_minpoly_symbolic", "kron_minpoly_direct",
    "lrs_product_poly", "LinRecSeq", "lrs_prefix", "lrs_eval", "lrs_mul",
    "lrs_min_annihilator",
    # exponentials and logarithms
    "ClosedFormExp", "RealClosedForm", "RealExpTerm", "SpiralExpTerm",
    "expm_closed", "closedform_eval", "expm_real", "realclosedform_eval",
    "logm", "log_pcf",
    # errors
    "PcanonError", "MixedFields", "NumericFieldUnsupported", "ZeroPolynomial",
    "NonMonic", "DegreeZero", "NonSplitField",
    "CharPositive", "NotConjugateSymmetric", "OrderTooLarge", "EmptyInput",
    "AnnihilatorMismatch", "InsufficientData", "SingularMatrix",
    "ProjectionsInaccurate", "PrincipalUndefined", "ZeroLogClash", "NotReal",
    "AnswerTooLarge", "ParseError",
]
