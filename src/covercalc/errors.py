"""Every exception class of the package, in one module that imports nothing.

Each layer re-exports the classes it raises (`graphs.GraphError`,
`hurwitz.HurwitzError`, ...), so callers may name them either way.  Living
here, they cost the CLI nothing to import: it can catch every user error
before, or without, loading the layer that raises it.

`InputError` is bad input, and every class but `InvariantError` derives from
it: the CLI maps it, and nothing else, to exit code 2.
The two shape checks every `from_json` makes, `json_fields` and
`json_list`, live here too, so that a null, a number or a missing key where
JSON input needs an object or a list raises the reading layer's own error.
"""


class InvariantError(RuntimeError):
    """A computed quantity broke an identity the code guarantees: a bug, not
    bad input.  The CLI maps it to exit code 3."""


class InputError(ValueError):
    """Input the package refuses.  The CLI maps it to exit code 2."""


class GroupError(InputError):
    pass


class NotNormalError(GroupError):
    def __init__(self, shown: str, witness: tuple):
        self.witness = witness  # (g, n), 0-based, with g n g^-1 outside the subgroup
        super().__init__(f"subgroup is not normal: {shown}")


class GraphError(InputError):
    pass


class IntegralError(InputError):
    pass


class CoverError(InputError):
    pass


class ActionError(CoverError):
    pass


class HurwitzError(InputError):
    pass


class PipelineError(InputError):
    pass


class SeriesError(InputError):
    """A malformed q-series or exact rational, or lengths it cannot meet."""


class UsageError(InputError):
    """A command line the argument parser refuses: an unknown or missing
    command, a missing option, or a value of the wrong type."""


def json_fields(data, what: str, error: type[InputError], names: tuple[str, ...]) -> tuple:
    """The entries `names` of the JSON object `data` (`what` in messages),
    or `error` if data is not an object or lacks one of them."""
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object")
    missing = [name for name in names if name not in data]
    if missing:
        raise error(f"{what} has no {', '.join(map(repr, missing))}")
    return tuple(data[name] for name in names)


def json_list(value, what: str, error: type[InputError]) -> list:
    """The JSON list `value` (`what` in messages), or `error`."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{what} must be a list: {value!r}")
    return list(value)
