"""Exception types raised across the library.

Every error carries enough context (vertex ids, layer indices, offending
values) to locate the problem without re-running the computation.
"""


class MultinetError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# graph construction / walk machinery


class DimensionMismatch(MultinetError):
    pass


class DanglingVertex(MultinetError):
    def __init__(self, vertex, message=None):
        self.vertex = vertex
        super().__init__(message or f"vertex {vertex} has zero out-degree")


class NonPositiveScale(MultinetError):
    pass


class NoConvergence(MultinetError):
    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"residual {residual:.3e} after {iterations} iterations")


class NotDetailedBalanced(MultinetError):
    pass


# ---------------------------------------------------------------------------
# layer transformation


class NegativeEntry(MultinetError):
    pass


class DelayBelowOne(MultinetError):
    pass


# ---------------------------------------------------------------------------
# composition


class ZeroDiagonal(MultinetError):
    def __init__(self, vertex, layer):
        self.vertex = vertex
        self.layer = layer
        super().__init__(
            f"ego matrix of vertex {vertex} has zero stay-probability in "
            f"layer {layer}; composition undefined"
        )


class ZeroDegree(MultinetError):
    def __init__(self, vertex, layer):
        self.vertex = vertex
        self.layer = layer
        super().__init__(
            f"vertex {vertex} has zero degree in layer {layer} but its ego "
            f"dynamics transition into that layer"
        )


class IsolatedInstance(MultinetError):
    def __init__(self, vertex, layer):
        self.vertex = vertex
        self.layer = layer
        super().__init__(
            f"instance (vertex {vertex}, layer {layer}) has zero total "
            f"out-weight; layer marginal undefined"
        )


class Infeasible(MultinetError):
    def __init__(self, message, interval=None):
        self.interval = interval
        super().__init__(message)


class Degenerate(MultinetError):
    pass


class Underdetermined(MultinetError):
    pass


class InfeasibleComposition(MultinetError):
    """Undirected ego composition rejected: some X_u is asymmetric."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            "inputs admit no undirected composition "
            f"(worst asymmetry {report.max_asymmetry:.3e}; "
            "pass force_symmetrize=True to average)"
        )


class StationaryCompositionError(MultinetError):
    """Aggregated per-vertex failures from stationary-based composition."""

    def __init__(self, failures):
        self.failures = failures  # list of (vertex, exception)
        lines = ", ".join(f"{v}: {e}" for v, e in failures[:5])
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        super().__init__(f"stationary composition failed at {lines}{more}")


class AsymmetricDistance(MultinetError):
    pass


class NonPositiveCoupling(MultinetError):
    pass


# ---------------------------------------------------------------------------
# spectral analysis


class Disconnected(MultinetError):
    def __init__(self, components):
        self.components = components
        super().__init__(f"graph has {len(components)} connected components")


class EmptySide(MultinetError):
    pass


class EmptyGraph(MultinetError):
    pass


# ---------------------------------------------------------------------------
# file formats


class ParseError(MultinetError):
    def __init__(self, line, reason, path=None):
        self.line = line
        self.reason = reason
        self.path = path
        where = f"{path}:{line}" if path else f"line {line}"
        super().__init__(f"{where}: {reason}")


class DuplicateEdge(MultinetError):
    pass


class UnknownLayer(MultinetError):
    pass


class MissingCategory(MultinetError):
    pass
