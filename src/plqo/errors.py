"""Exception hierarchy shared by all plqo modules."""


class PlqoError(Exception):
    """Base class for all errors raised by this package."""

    code = "plqo"


class ParseError(PlqoError):
    code = "parse"

    def __init__(self, message, line, column):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class MissingSymbol(PlqoError):
    code = "missing-symbol"


class UNotSubset(PlqoError):
    code = "u-not-subset"


class BudgetExceeded(PlqoError):
    code = "budget"


class UnsupportedNonlinear(PlqoError):
    code = "nonlinear"


class DimMismatch(PlqoError):
    code = "dim-mismatch"


class IncompatibleFamily(PlqoError):
    code = "incompatible-family"


class SpecInvalid(PlqoError):
    code = "spec-invalid"


class WitnessIncomplete(PlqoError):
    code = "witness-incomplete"


class SchemaPreconditionFailed(PlqoError):
    code = "schema-precondition"


class VerificationFailed(PlqoError, AssertionError):
    """An independent re-check rejected a proof, witness or countermodel."""

    code = "verify"


def verify(ok, message):
    """A load-bearing check: unlike ``assert`` it survives ``python -O``."""
    if not ok:
        raise VerificationFailed(message)
