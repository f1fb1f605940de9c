"""Exception hierarchy shared across the library.

Plain precondition violations (empty batch, bad parameter ranges) raise
the built-in ValueError/TypeError; the classes here cover the categories
that callers need to tell apart, e.g. for exit codes.
"""


class GalaError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(GalaError):
    """Invalid configuration: dimension mismatches, unknown keys, bad protocol setup."""


class DataError(GalaError):
    """Invalid data: labels out of range, missing labels, malformed datasets."""


class NumericError(GalaError):
    """Non-finite values encountered; aborts the run with diagnostics."""

    def __init__(self, message, round_index=None, client=None):
        self.reason = message  # the message without the round and client
        if round_index is not None:
            message += f" (round {round_index})"
        if client is not None:
            message += f" (client {client!r})"
        super().__init__(message)
        self.round_index = round_index
        self.client = client

    def __reduce__(self):  # keeps the fields across a process boundary
        return type(self), (self.reason, self.round_index, self.client)


class WorkerError(GalaError):
    """A worker process of a run exited or failed unexpectedly mid-round."""


class ParseError(GalaError):
    """Malformed config or dataset file."""


class IntegrityError(ParseError):
    """Dataset file checksum mismatch."""


class UnsupportedVersionError(ParseError):
    """Dataset file carries a version this build does not read."""
