"""Exception types shared across the toolkit, and the enumeration budget."""

# the most items an enumeration may list unless its caller names another budget
ENUMERATION_BUDGET = 100_000


class DirspecError(Exception):
    """Base class for all toolkit errors."""


class FieldMismatchError(DirspecError):
    """Two scalars (or vectors, measures, ...) live in different fields."""


class DimensionMismatchError(DirspecError):
    """Operands have incompatible ambient dimensions."""


class ValidationError(DirspecError):
    """A document or constructor argument fails schema/invariant checks."""


class NotReducedError(DirspecError):
    """A classification entry point received a measure containing delta_0."""


class UnsupportedConvolutionError(DirspecError):
    """Convolution pair with no finite carrier description (atom group * box)."""


class ClosureBoundError(DirspecError):
    """A convolution closure exceeded its component cap, or an enumeration
    its budget."""


class InvalidDirectionSetError(DirspecError):
    """A direction family cannot be realized (e.g. contains the full space)."""


def bounded_power(base: int, exponent: int, cap: int = ENUMERATION_BUDGET) -> int:
    """base**exponent for base >= 0, or cap + 1 when that is larger.  Past the
    cap's bit length the power is not formed: a base >= 2 is over it already."""
    if base >= 2 and exponent > cap.bit_length():
        return cap + 1
    return min(base ** exponent, cap + 1)


def check_enumeration(count: int, what: str, budget: int = ENUMERATION_BUDGET) -> None:
    """Raise ClosureBoundError, before any allocation, when an enumeration of
    ``count`` items (a count built from ``bounded_power``) exceeds ``budget``."""
    if count > budget:
        raise ClosureBoundError(f"{what} exceeds the enumeration budget of {budget} items")
