"""The ways a command can end other than by success.  `main` turns a
UsageError into exit 2 and `cmd_antichain` an InfeasibleError into exit 3;
a GameInvariantError is a failed self-check and ends with a traceback.  Any
other misuse of the library raises ValueError, and a failed certifying
condition is part of a result, never an exception."""


class UsageError(Exception):
    """An input cannot be read, parsed or evaluated (a table gauge without an
    entry at a level, an explicit map without an image for a node), or an
    output cannot be created."""


class DepthExhaustedError(Exception):
    """No eligible selector level remains for a game stage; `run_game` turns
    it into an InfeasibleError that names the stages completed."""

    def __init__(self, requirement, why):
        super().__init__(f"no eligible level left for requirement {requirement}: {why}")


class InfeasibleError(Exception):
    """The game cannot be played as asked: the schedule is too thin for the stage
    budget, or a stage's layer raises another requirement's bad set past its bound."""


class GameInvariantError(Exception):
    """A self-check inside a game stage failed."""
