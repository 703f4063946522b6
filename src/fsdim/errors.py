"""Exception types shared across the package."""


class FsdimError(Exception):
    """Base class for all domain errors raised by this package; `line`, when
    given, is the input line at fault."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")


class InvalidBase(FsdimError):
    pass


class InvalidDigit(FsdimError):
    pass


class SpecOutOfRange(FsdimError):
    pass


class InsufficientDigits(FsdimError):
    pass


class FstSyntaxError(FsdimError):
    pass


class MissingTransition(FstSyntaxError):
    pass


class DuplicateTransition(FstSyntaxError):
    pass


class StateOutOfRange(FstSyntaxError):
    pass


class EmptyPattern(FsdimError):
    pass


class InsufficientTraining(FsdimError):
    pass


class InvalidPermutation(FsdimError):
    pass


class AllRowsFlagged(FsdimError):
    pass
