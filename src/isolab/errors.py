"""Exception hierarchy shared by all isolab modules.

Every failure mode that a caller is expected to handle gets its own class so
that tests can assert on the *kind* of failure, not on message strings.
"""
from __future__ import annotations


class IsolabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(IsolabError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class QuadratureError(IsolabError):
    """A quadrature did not converge to the requested tolerance."""


class BracketError(IsolabError):
    """A root bracket does not change sign (or is otherwise unusable)."""


class InvalidPotentialError(IsolabError, ValueError):
    """A potential specification violates its structural requirements."""


class NonIntegrableError(IsolabError):
    """exp(-psi) has no finite integral over the stated domain."""


class ConfigError(IsolabError, ValueError):
    """A run configuration is malformed or contains unknown keys."""


class InvariantViolation(IsolabError):
    """A mathematically guaranteed invariant failed numerically.

    This signals an implementation bug (or a caller feeding data that breaks
    a precondition silently), never a legitimate runtime condition.
    """
