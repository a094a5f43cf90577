"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class so that
tests and the CLI can tell validation problems, search caps, and bad parameters
apart without string matching.

Every exhaustive search has one fixed cap, a private constant of its module.
A search counts its items only up to cap + 1 and then raises
``BudgetExceeded``, the one budget class. ``SearchBudgetExceeded`` is an
older name bound to the same class; it stays while the benchmark harness
(``bench/workload.py``) imports it.
"""

from __future__ import annotations


class EqlatError(Exception):
    """Base class for all package-specific errors."""


class CycleError(EqlatError):
    """The input cover relation contains a directed cycle."""


class UnknownLabel(EqlatError):
    """A label was referenced that is not an element of the structure."""


class NotALattice(EqlatError):
    """A pair of elements lacks a unique meet or join."""


class NotJoinHomomorphism(EqlatError):
    """An operator fails f(x + y) = f(x) + f(y) for some pair."""


class ZeroNotPreserved(EqlatError):
    """An operator fails f(0) = 0."""


class InvariantViolation(EqlatError):
    """A structural invariant promised by a type does not hold."""


class BudgetExceeded(EqlatError):
    """A search found more than ``cap`` items of kind ``what`` and stopped there."""

    def __init__(self, what: str, cap: int) -> None:
        super().__init__(f"more than {cap} {what} exceed cap {cap}")
        self.what = what
        self.cap = cap


SearchBudgetExceeded = BudgetExceeded


class ParamOutOfRange(EqlatError):
    """A named-family parameter is outside the supported range."""
