"""Shared exception types."""


class InputError(ValueError):
    """Malformed or inconsistent user input (bad JSON, vertex mismatch, ...)."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its configured budget.

    ``required`` carries the size the enumeration would have needed.
    """

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class NonPolynomialError(ValueError):
    """A rational function expected to be polynomial is not.

    ``remainder`` carries the offending canonical denominator as a witness.
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class CoprimalityError(InputError):
    """The Betti formula requires theta(d) and dim d to be coprime."""
