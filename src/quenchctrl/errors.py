"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration violates one of the model assumptions (A1)-(A4).

    The message names the violated assumption tag verbatim so that CLI
    users can map a rejection back to the modelling requirement.
    """


class SolverError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class ShapeMismatchError(ValueError):
    """Fields or trajectories that should share a mesh do not."""


class NonFiniteError(ValueError):
    """A field or trajectory holds NaN or an infinity."""
