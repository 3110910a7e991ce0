"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """Base class for failures of a numerical procedure (as opposed to bad input)."""


class DivergenceError(NumericalError):
    """An improper integral was detected to diverge (partial sums not Cauchy)."""


class TailBoundError(NumericalError):
    """A tail integral could not be certified, or underflowed where its log is needed."""

    def __init__(self, message, s=None):
        super().__init__(message)
        self.s = s


class ContractionError(NumericalError):
    """Fixed-point iteration contracted slower than the certified factor allows."""


class ConvergenceError(NumericalError):
    """An iteration exhausted its budget without meeting its tolerance."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class DecayBoundError(NumericalError):
    """A trajectory violated its certified decay envelope beyond tolerance."""

    def __init__(self, message, s=None, node=None, ratio=None):
        super().__init__(message)
        self.s = s
        self.node = node
        self.ratio = ratio


class LipschitzError(NumericalError):
    """A computed graph violated the contractive Lipschitz bound between nodes."""

    def __init__(self, message, worst_ratio=None, location=None):
        super().__init__(message)
        self.worst_ratio = worst_ratio
        self.location = location


class BlowupError(NumericalError):
    """A nonlinear trajectory left the trust region; carries the blow-up time."""

    def __init__(self, message, t_blowup=None):
        super().__init__(message)
        self.t_blowup = t_blowup


class ConfigError(ValueError):
    """A run configuration failed schema validation; carries the offending key path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
