"""Exception types shared across the toolkit."""

from __future__ import annotations


class GraphFormatError(ValueError):
    """Malformed edge-list or certificate input."""


class HallViolation(ValueError):
    """Hall's condition fails; carries the witness subset."""

    def __init__(self, witness, shortfall):
        self.witness = frozenset(witness)
        self.shortfall = shortfall
        super().__init__(f"Hall condition violated on {sorted(self.witness)} (short by {shortfall})")


class SizeLimit(ValueError):
    """Input exceeds a documented exhaustive-computation cutoff."""


class EligibilityError(ValueError):
    """Graph fails the structural preconditions of the colouring pipeline."""


class HypothesisViolated(ValueError):
    """A theorem's stated hypothesis fails; names the failing condition."""


class BoundViolation(AssertionError):
    """An exactly-verified inequality failed; indicates an implementation bug."""


class LpError(RuntimeError):
    """Unexpected LP state (unbounded subproblem, failed internal check)."""
