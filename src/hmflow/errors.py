"""Exception types shared across the package."""


class HmflowError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HmflowError):
    """Invalid grid/stepper/run configuration."""


class ContractViolation(HmflowError):
    """An operation was called with inputs violating its contract
    (mismatched grids, wrong sector, non-angle boundary limits, ...)."""


class SectorError(ContractViolation):
    """Field is not in the sector required by the operation."""


class NoBubbleError(HmflowError):
    """Scale fit failed: no orthogonality root near the initial guess,
    i.e. the field is not close to a single-bubble decomposition."""


class FitUnreliableError(HmflowError):
    """Rate fit rejected: not enough samples / dynamic range."""
