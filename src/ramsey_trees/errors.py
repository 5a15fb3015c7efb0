"""Exception types shared across the package.

Domain errors (bad input, impossible request) derive from ValueError so the
CLI can map them to exit code 1; resource errors (size guards, search budgets)
derive from ResourceError and map to exit code 2.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed Newick text. Carries the offending token and byte offset."""

    def __init__(self, message: str, token: str, offset: int):
        super().__init__(f"{message}: {token!r} at byte {offset}")
        self.token = token
        self.offset = offset


class InconsistentTriplesError(ValueError):
    """Rooted-triple structure admits no realizing plane tree."""


class FormatError(ValueError):
    """Malformed JSON payload for one of the documented interchange formats."""


class ResourceError(RuntimeError):
    """Base for guard/budget failures (CLI exit code 2)."""


class ResourceLimitError(ResourceError):
    """A configured size guard (leaf count, enumeration cap) was exceeded."""


class BudgetExhaustedError(ResourceError):
    """A reduction chain link could not be certified within the given limits."""
