"""Exception types shared across the package."""


class MaserlineError(Exception):
    """Base class for all maserline errors."""


class VacuumStateError(MaserlineError):
    """The photon statistics carry no excitation; a linewidth is undefined."""


class TruncationError(MaserlineError):
    """The Fock-basis truncation is too small for the requested state."""


class ResourceLimitError(TruncationError):
    """Automatic truncation search exceeded the configured hard limit."""


class QuadratureError(MaserlineError):
    """Quadrature nodes could not be computed or a node-doubling ladder
    ran out of headroom before the target tolerance was met."""


class SpectralError(MaserlineError):
    """Eigen-decomposition of a sideband generator is unreliable or
    undefined: large residual, (near-)defective generator, sum-rule
    violation, or a mode that does not decay."""


class ConfigError(MaserlineError):
    """Invalid scan configuration passed to the command-line front end."""
