"""Exception taxonomy shared across the package.

Callers that map failures to process exit codes treat CapabilityError as a
"numeric capability" failure (exit 3) and DomainError as a usage error
(exit 2).  No exception means a verification failure: a refutation is a
certified sign that a report returns, read by evaluation.decide, and the
CLI turns it into exit 1.
"""

from __future__ import annotations


class PolycmError(Exception):
    """Base class for all package-specific failures."""


class DomainError(PolycmError, ValueError):
    """Input outside the mathematical domain (x <= 0, bad order, ...)."""


class CapabilityError(PolycmError, ArithmeticError):
    """The request exceeds what double precision / configured caps support."""
