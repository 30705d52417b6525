"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-range input to a constructor or operation."""


class AmbientMismatch(InputError):
    """Two complexes disagree about a simplex on a shared vertex set."""


class IrregularCollapse(InputError):
    """A vertex quotient identifies non-adjacent vertices of some tuple."""


class AuditFailure(AssertionError):
    """A recomputation oracle disagrees with stored data."""


class CertifyFailure(RuntimeError):
    """A certificate construction stage failed validation."""
