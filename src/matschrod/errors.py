"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """States or coefficient fields live on different grids."""


class EllipticityError(ValueError):
    """Diffusion samples are not uniformly positive definite; ``DiffusionField`` refuses them."""


class ConvergenceError(RuntimeError):
    """An iterative solver did not reach its tolerance.

    The partially converged report, when one exists, is attached as the
    ``partial`` attribute so callers can inspect what was achieved.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class QuadratureError(RuntimeError):
    """Step-halving disagreement revealed an under-resolved quadrature."""


class ConfigError(ValueError):
    """An experiment configuration failed schema validation."""
