"""Every exception class of the package, in one module that imports nothing.

Each layer re-exports the classes it raises (`graphs.GraphError`,
`hurwitz.HurwitzError`, ...), so callers may name them either way.  Living
here, they cost the CLI nothing to import: it can catch every user error
before, or without, loading the layer that raises it.

All but `InvariantError` mean bad input: the CLI maps them to exit code 2.
"""


class InvariantError(RuntimeError):
    """A computed quantity broke an identity the code guarantees: a bug, not
    bad input.  The CLI maps it to exit code 3."""


class GroupError(ValueError):
    pass


class NotNormalError(GroupError):
    def __init__(self, g: tuple[int, ...], n: tuple[int, ...]):
        self.witness = (g, n)
        super().__init__(f"subgroup is not normal: conjugating {n} by {g} leaves it")


class GraphError(ValueError):
    pass


class IntegralError(ValueError):
    pass


class CoverError(ValueError):
    pass


class ActionError(CoverError):
    pass


class HurwitzError(ValueError):
    pass


class PipelineError(ValueError):
    pass


class UsageError(ValueError):
    """A command line the argument parser refuses: an unknown or missing
    command, a missing option, or a value of the wrong type."""
