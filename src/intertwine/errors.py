"""Exception types shared across the library."""


class IntertwineError(Exception):
    """Base class for every error raised by this library."""


class NotPrimeError(IntertwineError):
    """Field characteristic is not a prime number."""

    def __init__(self, p):
        super().__init__(f"not a prime: {p}")
        self.p = p


class FieldSizeError(IntertwineError, ValueError):
    """Extension degree is not a positive integer, or the field order exceeds
    the supported bound 2^31.  Also a ValueError, so that code catching
    ValueError for a bad field still catches it."""


class BadModulusError(IntertwineError):
    """Extension modulus has the wrong degree, is not monic, or is reducible."""


class DivisionByZeroError(IntertwineError):
    """Division or inversion of the zero field element."""


class FieldMismatchError(IntertwineError):
    """Operands live over different finite fields."""


class ZeroPolynomialError(IntertwineError):
    """Operation is undefined for the zero polynomial."""


class ConstantPolynomialError(IntertwineError):
    """Operation requires a polynomial of degree at least one."""


class NotMonicError(IntertwineError):
    """Operation requires a monic polynomial."""


class BothZeroError(IntertwineError):
    """gcd(0, 0) is undefined."""


class NotSquareError(IntertwineError):
    """Operation requires a square matrix."""


class SingularError(IntertwineError):
    """Matrix is not invertible."""


class SizeMismatchError(IntertwineError):
    """Matrix shapes are incompatible with the requested operation."""


class LengthMismatchError(IntertwineError):
    """Paired sequences must have the same nonzero length."""


class DependentPrefixError(IntertwineError):
    """Prefix vectors are linearly dependent."""


class NotIrreducibleError(IntertwineError):
    """Polynomial is not irreducible."""


class EmptyListError(IntertwineError):
    """At least one partition is required."""


class ZeroCodeError(IntertwineError):
    """Minimum distance is undefined for the zero code."""


class BudgetExceededError(IntertwineError):
    """The code's q^k - 1 nonzero codewords exceed the allowed budget."""

    def __init__(self, needed, budget):
        super().__init__(f"enumeration needs {needed} codewords, budget is {budget}")
        self.needed = needed
        self.budget = budget


class BadKError(IntertwineError):
    """Requested code dimension k is outside 1..min(r, s)."""


class FieldTooSmallError(IntertwineError):
    """The field has too few elements for the requested construction."""

    def __init__(self, required, actual):
        super().__init__(
            f"construction needs a field with at least {required} elements, got {actual}"
        )
        self.required = required
        self.actual = actual


class InternalInconsistencyError(IntertwineError):
    """A cross-check that can only fail on an implementation bug failed."""
