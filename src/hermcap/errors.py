"""Exception hierarchy."""


class HermcapError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HermcapError):
    """Unsupported field parameters or invalid configuration."""


class CapViolationError(HermcapError):
    """An operation would break the cap condition (adding a covered point)."""


class MemberNotFoundError(HermcapError):
    """A point expected to be a cap member is not."""


class CapFileError(HermcapError):
    """A cap file failed validation; the message names the violated invariant."""
