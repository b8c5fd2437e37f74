"""Exception hierarchy shared by all defifix modules."""


class DefifixError(Exception):
    """Base class for all defifix errors."""

    code = "error"


class FieldSpecError(DefifixError):
    """Malformed field specification, non-prime characteristic, or reducible modulus."""

    code = "field-spec"


class FieldMismatchError(DefifixError):
    """Operands belong to different fields."""

    code = "field-mismatch"


class InfiniteFieldError(DefifixError):
    """Operation requires a finite field."""

    code = "infinite-field"


class FormulaSyntaxError(DefifixError):
    """Formula source failed to parse; carries line and column."""

    code = "syntax"

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class EvaluationError(DefifixError):
    """Unbound variable or missing predicate interpretation during evaluation."""

    code = "evaluation"


class NormalizationError(DefifixError):
    """Input formula outside the normalizable fragment."""

    code = "normalization"


class CapExceededError(DefifixError):
    """A configured search or size cap was exceeded."""

    code = "cap-exceeded"


class NotDefiningError(DefifixError):
    """The distinguished element participates in no fact of its neighbourhood."""

    code = "not-defining"


class NotSingletonError(DefifixError):
    """The formula's definable set is not a single element."""

    code = "not-singleton"

    def __init__(self, message, definable=None):
        super().__init__(message)
        self.definable = definable


class SchemaError(DefifixError):
    """Missing or malformed schema parameter."""

    code = "schema"
