"""Exception types with a fixed CLI exit-code mapping."""


class CcfomError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(CcfomError):
    """Invalid configuration, problem id, or input schema (CLI exit 3)."""


class OracleError(CcfomError):
    """An oracle produced a non-finite value or its LP solve failed (CLI exit 4).

    ``iteration`` is the index k at which the run was aborted, or None when
    the failure is not tied to a specific iteration.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration
