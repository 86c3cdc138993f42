"""Exception types raised across the package."""


class AnisoPFError(Exception):
    """Base class for all package-specific errors."""


class ZeroDirection(AnisoPFError):
    """Gradient of the anisotropy density requested at the zero vector."""


class InvalidDelta(AnisoPFError):
    """Regularisation parameter outside the open interval (0, 1)."""


class NotRotation(AnisoPFError):
    """Matrix failed the orthogonality / determinant-one check."""


class NotApplicable(AnisoPFError):
    """Operation does not apply to the given configuration."""


class InvalidN(AnisoPFError):
    """Invalid mesh subdivision count."""


class RefinementDepthExceeded(AnisoPFError):
    """Bisection recursion exceeded the allowed number of levels."""


class MeshMismatch(AnisoPFError):
    """Field and transfer map refer to different meshes."""


class MeshChanged(AnisoPFError):
    """Consecutive states live on different meshes."""


class InconsistentDimensions(AnisoPFError):
    """Array lengths do not match the mesh."""


class ZeroDiagonal(AnisoPFError):
    """The phase-row matrix has a nonpositive diagonal entry, so the
    active-set predictor ``U - res / diag(C)`` is undefined."""


class NonConvergence(AnisoPFError):
    """Iterative solver exhausted its iteration budget."""


class SingularSystem(AnisoPFError):
    """The step system has no determined solution."""


class NewtonDivergence(AnisoPFError):
    """Newton line search failed to reduce the residual."""


class InterfaceTooWide(AnisoPFError):
    """Initial interface width exceeds the seed radius."""


class StabilityViolation(AnisoPFError):
    """A per-step stability inequality failed beyond tolerance."""


class ParseError(AnisoPFError):
    """Malformed configuration text."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(AnisoPFError):
    """Configuration value violates a constraint."""

    def __init__(self, key, reason):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason
