"""Exception types shared across the package."""


class NicholsError(Exception):
    """Base class for all package-specific errors."""


class MalformedSpec(NicholsError, ValueError):
    """A field spec or element literal does not match the documented grammar."""


class NonPrimeCharacteristic(NicholsError, ValueError):
    """Requested prime-field characteristic is not prime."""


class ReduciblePolynomial(NicholsError, ValueError):
    """Extension modulus is reducible over its base field."""


class DivisionByZero(NicholsError, ZeroDivisionError):
    """Division by, or inversion of, the zero element."""


class FieldMismatch(NicholsError, ValueError):
    """Operands belong to different fields."""


class NonHomogeneous(NicholsError, ValueError):
    """Operation requires a homogeneous element."""


class HypothesisViolated(NicholsError, ValueError):
    """A nonvanishing hypothesis such as (m)_q^! b_m != 0 fails."""


class OutOfRange(NicholsError, ValueError):
    """Index outside the range permitted by the operation."""


class SolvabilityViolated(NicholsError, ValueError):
    """The compatibility condition of the d1-solving recursion fails."""


class NotInJ2(NicholsError, ValueError):
    """Index is not a J2 member with the supplied witness."""


class UnsupportedM(NicholsError, ValueError):
    """The non-root table covers only m in {1, 2, 3, 4, 6}."""


class ZeroBraidingEntry(NicholsError, ValueError):
    """A braiding matrix entry is zero."""


class UsageError(NicholsError):
    """Command-line arguments the CLI cannot act on (exit status 2)."""


class DegreeCeilingExceeded(NicholsError, ValueError):
    """Total degree exceeds the word-basis ceiling for oracle computations."""
