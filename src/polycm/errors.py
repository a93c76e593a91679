"""Exception taxonomy shared across the package.

Callers that map failures to process exit codes treat CapabilityError as a
"numeric capability" failure (exit 3), DomainError as a usage error (exit 2)
and everything else, which is SearchExhaustedError, as a verification
failure (exit 1).  No CLI call reaches SearchExhaustedError: the CLI sets no
witness search window.
"""

from __future__ import annotations


class PolycmError(Exception):
    """Base class for all package-specific failures."""


class DomainError(PolycmError, ValueError):
    """Input outside the mathematical domain (x <= 0, bad order, ...)."""


class CapabilityError(PolycmError, ArithmeticError):
    """The request exceeds what double precision / configured caps support."""


class SearchExhaustedError(PolycmError, RuntimeError):
    """A witness search scanned its whole range without a certified point."""
