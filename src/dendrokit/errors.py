"""Exceptions and enumeration budgets.

Every operation that can blow up combinatorially takes an explicit budget and
raises :class:`BudgetExceeded` instead of silently truncating.  The default
budget can be overridden globally through the ``DENDRO_BUDGET`` environment
variable or per call.
"""

import os

DEFAULT_BUDGET = 10**12


class DendroError(Exception):
    """Base class for all domain errors raised by dendrokit."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.message = message
        self.detail = detail if detail is not None else {}

    def payload(self):
        return {"error": self.message, "detail": self.detail}


class ParseError(DendroError):
    """Malformed tree term; ``detail['position']`` points at the offender."""

    def __init__(self, message, position):
        super().__init__(message, {"position": position})
        self.position = position


class BudgetExceeded(DendroError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, operation, estimate, budget):
        super().__init__(
            "budget exceeded",
            {"operation": operation, "estimate": estimate, "budget": budget},
        )


class DomainError(DendroError):
    """Input outside an operation's stated hypotheses."""


def resolve_budget(budget=None):
    """Explicit argument beats DENDRO_BUDGET beats the built-in default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get("DENDRO_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError("invalid DENDRO_BUDGET", {"value": env}) from None
    return DEFAULT_BUDGET


def charge(operation, estimate, budget=None):
    """Raise BudgetExceeded when `estimate` is over the resolved budget."""
    limit = resolve_budget(budget)
    if estimate > limit:
        raise BudgetExceeded(operation, estimate, limit)
    return limit
