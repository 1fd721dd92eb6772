"""Exception hierarchy shared by all qmn modules."""


class QmnError(Exception):
    """Base class for all library errors."""


class QuiverValidationError(QmnError):
    pass


class CyclicQuiver(QuiverValidationError):
    pass


class DanglingArrow(QuiverValidationError):
    pass


class DuplicateArrowId(QuiverValidationError):
    pass


class MultipleArrows(QuiverValidationError):
    """Parallel arrows on a quiver flagged as a network."""


class UnframableArrow(QuiverValidationError):
    """Arrow from a source directly to a sink; the framing split cannot represent it."""


class ShapeMismatch(QmnError):
    pass


class SingularGauge(QmnError):
    pass


class PathExplosion(QmnError):
    def __init__(self, count, cap):
        super().__init__(f"hidden path count {count} exceeds cap {cap}")
        self.count = count
        self.cap = cap


class QuiverMismatch(QmnError):
    pass


class SingularPreActivation(QmnError):
    def __init__(self, vertex, value):
        super().__init__(f"pre-activation at vertex {vertex!r} is {value:.3e}, below tolerance")
        self.vertex = vertex
        self.value = value


class DivergenceDetected(QmnError):
    def __init__(self, epoch, loss):
        super().__init__(f"loss {loss:.3e} at epoch {epoch} is not finite or exceeds the divergence limit")
        self.epoch = epoch
        self.loss = loss


class NoConvergence(QmnError):
    def __init__(self, iterations, residual):
        super().__init__(f"no convergence after {iterations} sweeps, residual {residual:.3e}")
        self.iterations = iterations
        self.residual = residual


class CodimensionMismatch(QmnError):
    pass
