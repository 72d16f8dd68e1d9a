"""The error every layer raises when an internal invariant fails."""


class InvariantError(RuntimeError):
    """A computed quantity broke an identity the code guarantees: a bug, not
    bad input.  The CLI maps it to exit code 3."""
