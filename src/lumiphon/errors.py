"""Exception hierarchy and warning categories.

Two error families map onto the CLI exit-code contract: InputError for
anything wrong with user-supplied data or flags (exit 2), NumericalError
for failures of the numerics themselves (exit 3).  A raise names its
family and says in its message what went wrong; a subclass is kept only
when it carries more than the message (a locus), and a warning category
only because its name reaches stderr.
"""


class LumiphonError(Exception):
    pass


class InputError(LumiphonError):
    """Invalid input data, document, or configuration."""


class NumericalError(LumiphonError):
    """A numerical contract could not be met."""


class NonFiniteValue(InputError):
    """NaN, infinity or a number past the float range; may carry a locus."""

    def __init__(self, message, locus=None):
        self.locus = locus
        super().__init__(message)


class ParseError(InputError):
    """Malformed document; carries a locus (line/column or JSON pointer)."""

    def __init__(self, message, locus=None):
        self.locus = locus
        super().__init__(f"{message} [at {locus}]" if locus else message)


class ZeroFrequencyModeWarning(UserWarning):
    """A near-zero mode was excluded from a force-route projection."""


class CapTooSmallWarning(UserWarning):
    """Enumeration cap leaves more than 1e-6 of the total weight in the tail."""
