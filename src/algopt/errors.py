"""Exception types shared across the library."""


class AlgoptError(Exception):
    """Base class for library-specific errors."""


class IntegrationDivergedError(AlgoptError):
    """Raised when an ODE state becomes non-finite during integration."""

    def __init__(self, t: float):
        self.t = float(t)   # a plain float, so the message holds no numpy repr
        super().__init__(f"integration produced a non-finite state at t={self.t!r}")


class CompositionError(AlgoptError):
    """Raised when two paths cannot be composed because their base points disagree."""

    def __init__(self, gap: float):
        super().__init__(f"base endpoint mismatch, gap norm {gap:.6g}")
        self.gap = gap


class ChatteringError(AlgoptError):
    """Raised when closed-loop integration detects an implausible number of switches."""

    def __init__(self, n_switches: int, t: float):
        self.n_switches = n_switches
        self.t = float(t)
        super().__init__(f"more than {n_switches} control switches by t={self.t!r}; aborting")


class UnsupportedDimensionError(AlgoptError):
    """Raised when H is to be maximized over a box without a registered maximizer."""


class ConfigError(AlgoptError):
    """Raised on scenario configuration problems; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class AdmissibilityWarning(UserWarning):
    """Emitted when a generated homotopy violates base admissibility beyond threshold."""
