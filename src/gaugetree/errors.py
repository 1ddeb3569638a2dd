"""Exception types shared across the package."""


class GaugeTreeError(Exception):
    """Base class for all package-specific errors."""


class OutOfRangeError(GaugeTreeError):
    """A table gauge was queried outside its stored scale range."""


class UsageError(GaugeTreeError):
    """An input file cannot be read or parsed, or an output cannot be created."""


class InsufficientDataError(GaugeTreeError):
    """Not enough scales requested to reach an order verdict."""


class TruncationError(GaugeTreeError):
    """A node is longer than the tree's working depth."""


class NodeBudgetError(GaugeTreeError):
    """Materialization would exceed the explicit node budget."""

    def __init__(self, count, budget):
        super().__init__(f"materialization needs {count} leaves, budget is {budget}")
        self.count = count
        self.budget = budget


class FrostmanConditionError(GaugeTreeError):
    """The mass-distribution inequality fails up to the working depth."""

    def __init__(self, worst_level, excess):
        super().__init__(
            f"cylinder measure exceeds the gauge at level {worst_level} "
            f"(log2 excess {excess:.6g})"
        )
        self.worst_level = worst_level
        self.excess = excess


class UndefinedNodeError(GaugeTreeError):
    """An explicit node map has no entry for the requested node."""


class DepthExhaustedError(GaugeTreeError):
    """No eligible selector level remains for a game stage."""

    def __init__(self, requirement, why):
        super().__init__(f"no eligible level left for requirement {requirement}: {why}")
        self.requirement = requirement


class InfeasibleError(GaugeTreeError):
    """The game cannot be played as asked: the schedule is too thin for the stage
    budget, or a stage's layer raises another requirement's bad set past its bound."""


class GameInvariantError(GaugeTreeError):
    """A self-check inside a game stage failed."""


class DegenerateIntervalError(GaugeTreeError):
    """Four-cover requested for an empty interval."""
