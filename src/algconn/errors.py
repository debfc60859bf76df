"""Exception types shared across the package.

Every error raised by the library derives from :class:`GraphError`, so callers
can catch one base class at API boundaries (the CLI does exactly that).
"""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class InvalidVertex(GraphError):
    """A vertex index is out of range, or a vertex argument is otherwise unusable."""


class SelfLoop(GraphError):
    """An edge joins a vertex to itself; only simple graphs are supported."""


class ParseError(GraphError):
    """A textual graph representation is malformed."""


class NotConnected(GraphError):
    """The operation requires a connected graph."""


class TooLarge(GraphError):
    """The argument exceeds a documented size ceiling."""


class TooSmall(GraphError):
    """The argument is below the smallest order the operation supports."""


class NotSymmetric(GraphError):
    """The eigensolver was handed something that is not a finite symmetric matrix."""


class NoConvergence(GraphError):
    """The eigensolver reported that it failed to converge."""


class ZeroVector(GraphError):
    """A Rayleigh quotient was requested for the zero vector."""


class DimensionMismatch(GraphError):
    """A vector's length does not match the graph order."""


class NotATree(GraphError):
    """Fiedler-vector classification is defined for trees only."""


class ClassificationInconsistent(GraphError):
    """A Fiedler vector violates the two-case tree structure beyond tolerance."""


class IsolatedVertex(GraphError):
    """Edge covers do not exist in graphs with isolated vertices."""


class NoCycle(GraphError):
    """A unicyclic spanning subgraph was requested for an acyclic graph."""


class Infeasible(GraphError):
    """No object exists for the requested parameters."""


class TrivialBranch(GraphError):
    """Branch relocation needs a branch with at least two vertices."""


class UnknownTarget(GraphError):
    """The verification registry has no target with the given name."""


class EmptyClassWarning(UserWarning):
    """A graph-class filter is infeasible; the stream is empty, not an error."""
