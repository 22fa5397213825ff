"""Exception types shared across the library."""

__all__ = ["ConfigError", "DegenerateInput", "DomainError", "MeanIneqError"]


class MeanIneqError(Exception):
    """Base class for all library errors."""


class ConfigError(MeanIneqError):
    """Raised when a sample/weight configuration is malformed."""


class DomainError(MeanIneqError):
    """Raised when arguments fall outside an operation's stated domain."""


class DegenerateInput(MeanIneqError):
    """Raised when an expression degenerates to 0/0 (e.g. constant samples)."""
