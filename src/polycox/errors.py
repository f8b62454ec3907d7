"""Exception hierarchy shared across the engine.

The CLI maps these onto its exit-code contract: malformed input is
distinct from violated preconditions, which are distinct from exhausted
budgets.
"""


class PolycoxError(Exception):
    """Base class for engine errors."""


class InputError(PolycoxError):
    """Malformed input data: bad word, bad schema, bad multiplication table."""


class StepError(PolycoxError):
    """A rewriting step does not match at the requested position."""


class CompositionError(PolycoxError):
    """2-cells composed along mismatched boundaries."""


class OrientationError(PolycoxError):
    """The termination order cannot orient a pair of distinct normal forms."""


class CoherenceError(PolycoxError):
    """A confluence 3-cell required by a construction is missing."""


class ClassificationError(PolycoxError):
    """A completed 3-cell fits none of the known family shapes."""


class NielsenError(PolycoxError):
    """A cell is not collapsible the way a collapsible part claims; each
    violation found is kept in ``violations``."""

    def __init__(self, *violations: str):
        super().__init__("; ".join(violations))
        self.violations = violations


class PreconditionError(PolycoxError):
    """An operation's precondition does not hold."""


class BudgetError(PolycoxError):
    """A configured budget was exhausted."""


class NonterminationError(BudgetError):
    """Step budget exhausted while normalizing; nontermination suspected."""


class DivergenceError(BudgetError):
    """Rule or branching budget exhausted during completion."""


class InfiniteOrUnknown(BudgetError):
    """Coset enumeration did not close within the coset cap."""
