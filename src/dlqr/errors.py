"""Exception types shared across the dlqr package."""


class DlqrError(Exception):
    """Base class for all dlqr-specific errors."""


class NonSquare(DlqrError):
    """A matrix that must be square is not."""


class DimensionMismatch(DlqrError):
    """Operand dimensions are inconsistent."""


class SolverDiverged(DlqrError):
    """An iterative solver exhausted its budget or failed its residual check."""


class AssumptionViolated(DlqrError, ValueError):
    """Input data fails a structural assumption (rank tests, definiteness,
    symmetry, finiteness). Also a ValueError: it is the error of invalid
    input values."""


class SingularInnovation(DlqrError):
    """The innovation matrix of a Riccati iteration is numerically singular."""


class NotStabilizing(DlqrError):
    """Controller does not stabilize the closed loop; the cost is infinite.

    rho is the closed-loop spectral radius when the raiser computed it
    (cost.evaluate does), else None."""

    def __init__(self, message="", rho=None):
        super().__init__(message)
        self.rho = rho


class NotObservable(DlqrError):
    """Controller state is not observable from the controller output."""


class SingularTransform(DlqrError):
    """Coordinate-change matrix is numerically singular."""


class OptimalTransformNotFound(DlqrError):
    """No optimal coordinate change exists for this controller and second moment."""


class SingularX12(DlqrError):
    """The off-diagonal block of the second moment is singular."""


class InitFailed(DlqrError):
    """Rejection sampling could not produce an admissible controller."""


class SchemaError(DlqrError):
    """Problem file does not match the expected JSON schema."""
