"""Exception hierarchy shared across the lab."""


class VacuumLabError(Exception):
    """Base class for all errors raised by vacuumlab."""


class ResolutionError(VacuumLabError):
    """A kernel, spike or frequency is too fine for the grid."""


class InfeasibleKernelError(VacuumLabError):
    """No transition steepness yields a unit-mass plateau kernel."""


class DomainExhaustedError(VacuumLabError):
    """Mollification radius leaves no interior time slices."""


class GridMemoryError(VacuumLabError):
    """Requested grid exceeds the configured node cap."""


class NegativityError(VacuumLabError, ValueError):
    """A density or weight has a sample below 0; a bad value, so a ValueError."""


class VacuumSingularityError(VacuumLabError):
    """A mollified field is vacuum where the field itself is positive."""


class AdmissibilityError(VacuumLabError):
    """Requested shock states violate the Lax conditions."""


class BlowupTimeError(VacuumLabError):
    """Simple-wave horizon exceeds the characteristic blow-up time."""


class ExponentRelationError(VacuumLabError):
    """Integrability exponents violate the required relation."""


class ConfigError(VacuumLabError):
    """Malformed or inconsistent experiment configuration."""
