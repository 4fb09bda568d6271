"""Exception types shared across the library.

Every domain failure raises a subclass of PcanonError so callers (and the
command line driver) can distinguish bad mathematics from bad input: the
CLI maps ParseError to exit status 2 and every other PcanonError to 1.
"""


class PcanonError(Exception):
    """Base class for all library errors."""


class MixedFields(PcanonError):
    """Operands live in different scalar fields; nothing is coerced silently."""


class NumericFieldUnsupported(PcanonError):
    """The scalar field cannot carry this operation (exact-only routine
    handed floating scalars, a numeric routine handed a field with no
    complex embedding, numpy failing on complex doubles, or a CLI power or
    term of index n over C, where n eps passes the tolerance)."""


class ZeroPolynomial(PcanonError):
    """The zero polynomial was supplied where a nonzero one is required."""


class NonMonic(PcanonError):
    """A monic polynomial was required."""


class DegreeZero(PcanonError):
    """A polynomial of positive degree was required."""


class NonSplitField(PcanonError):
    """The minimal polynomial does not factor into linear terms over the field."""


class CharPositive(PcanonError):
    """The power-basis form only exists in characteristic zero."""


class NotConjugateSymmetric(PcanonError):
    """The spectrum or its coefficients are not closed under conjugation."""


class OrderTooLarge(PcanonError):
    """The assembled matrix would exceed the supported order."""


class EmptyInput(PcanonError):
    """At least one operand is required."""


class AnnihilatorMismatch(PcanonError):
    """The claimed recurrence does not annihilate the constructed sequence."""


class InsufficientData(PcanonError):
    """The prefix is too short to pin down a minimal recurrence."""


class SingularMatrix(PcanonError):
    """The matrix is singular where an invertible one is required."""


class ProjectionsInaccurate(PcanonError):
    """Numeric spectral projections fail their own check: they do not sum
    to the identity, or are not idempotent, to the tolerance asked for; or
    a group of computed eigenvalues has no staircase that confirms it as
    one eigenvalue, so it has no index."""


class PrincipalUndefined(PcanonError):
    """An eigenvalue sits on the closed negative real axis (or at zero)."""


class ZeroLogClash(PcanonError):
    """Two distinct eigenvalues were mapped to the same logarithm."""


class NotReal(PcanonError):
    """A real matrix (or real-representable form) was required."""


class AnswerTooLarge(PcanonError):
    """The answer passes the CLI's size bound or is no finite complex double."""


class ParseError(PcanonError):
    """Malformed input document or inline payload."""
