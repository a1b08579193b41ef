"""Exception types shared across the library."""


class AlgoptError(Exception):
    """Base class for library-specific errors."""


class IntegrationDivergedError(AlgoptError):
    """Raised when an ODE state becomes non-finite during integration."""

    def __init__(self, t: float):
        super().__init__(f"integration produced a non-finite state at t={t!r}")
        self.t = t


class CompositionError(AlgoptError):
    """Raised when two paths cannot be composed because their base points disagree."""

    def __init__(self, gap: float):
        super().__init__(f"base endpoint mismatch, gap norm {gap:.6g}")
        self.gap = gap


class ChatteringError(AlgoptError):
    """Raised when closed-loop integration detects an implausible number of switches."""

    def __init__(self, n_switches: int, t: float):
        super().__init__(f"more than {n_switches} control switches by t={t!r}; aborting")
        self.n_switches = n_switches
        self.t = t


class UnsupportedDimensionError(AlgoptError):
    """Raised when numeric maximization is requested over a box of dimension > 3."""


class ConfigError(AlgoptError):
    """Raised on scenario configuration problems; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class AdmissibilityWarning(UserWarning):
    """Emitted when a generated homotopy violates base admissibility beyond threshold."""
