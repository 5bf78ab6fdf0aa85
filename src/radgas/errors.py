"""Exception types shared across the solver and diagnostics."""


class ConfigError(ValueError):
    """Invalid configuration, scenario, or grid parameters."""


class PositivityError(RuntimeError):
    """A substep drove the specific volume or temperature below its floor."""


class ConvergenceError(RuntimeError):
    """The heat solve did not converge, or the species update needs too many subcycles."""


class BlowUpError(RuntimeError):
    """A step could not be completed even after repeated timestep halving."""


class SingularMatrixError(RuntimeError):
    """A tridiagonal matrix is not positive definite: its elimination met a pivot <= 0."""


class WindowOutOfDomain(ValueError):
    """A probe window does not fit inside the truncated domain."""


class InsufficientHistory(ValueError):
    """A time-series diagnostic needs more sampled states than supplied."""
