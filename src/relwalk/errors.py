"""Exception types shared across the package."""


class RelwalkError(Exception):
    """Base class for all package errors."""


class ConfigError(RelwalkError):
    """Invalid configuration document or field."""


class ParseError(RelwalkError):
    """A word could not be parsed against the declared generators."""


class InvalidMeasureError(RelwalkError):
    """Step measure violates positivity or mass constraints."""


class StateCapError(RelwalkError):
    """Ball enumeration exceeded the configured state cap."""


class ConvergenceError(RelwalkError):
    """An iterative solve failed to reach its tolerance."""


class AssumptionError(RelwalkError):
    """A spectral precondition (compact level set, subcriticality) failed."""


class BoundedSequenceError(RelwalkError):
    """Sequence stays in a bounded set, so no boundary limit exists."""
