"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes so callers can tell a broken
config apart from a malformed data file or a physically invalid request.
"""


class SatQkdError(Exception):
    """Base class for all package errors."""


class ConfigError(SatQkdError):
    """Config file violates the schema (unknown keys, bad types, bad values)."""


class FileFormatError(SatQkdError):
    """A data file (CSV histogram/spectrum/pass) cannot be parsed."""


class DomainError(SatQkdError):
    """Inputs are syntactically fine but physically invalid."""


class OverlapUndefinedError(DomainError):
    """A filtered spectral line has no transmitted power; overlap is undefined."""
