"""Laplacian spectra, Fiedler vectors, and the two-case tree classification.

Eigendecompositions come from LAPACK's symmetric solver through
``numpy.linalg.eigh``; this module adds the input checks, the Fiedler sign
and zero conventions, and the tree classification on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassificationInconsistent,
    DimensionMismatch,
    NoConvergence,
    NotATree,
    NotConnected,
    NotSymmetric,
    TooSmall,
    ZeroVector,
)
from .graph import Graph, is_connected, is_tree

#: Entrywise asymmetry beyond this is rejected.
SYMMETRY_TOL = 1e-12

#: Eigenvalues within this of the algebraic connectivity count toward its
#: multiplicity (and span the eigenspace scanned by the verifier).
EIGENVALUE_MATCH_TOL = 1e-8

#: Entries within ``tol * max|entry|`` of zero are treated as exact zeros in a
#: Fiedler vector, both when it is normalized and when it is classified.
ZERO_ENTRY_REL_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    ``values`` is ascending; column ``vectors[:, i]`` is a unit eigenvector
    for ``values[i]`` and the columns are mutually orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class FiedlerData:
    """Algebraic connectivity with one unit eigenvector and the eigenvalue's
    multiplicity.

    Entries within ``ZERO_ENTRY_REL_TOL * max|entry|`` of zero are stored as
    exactly ``0.0``.  The sign makes positive the first entry whose magnitude
    is within that relative tolerance of the maximum, so a vector and its
    negation, or two solvers' roundings of it, normalize alike."""

    alpha: float
    vector: np.ndarray
    multiplicity: int


@dataclass(frozen=True)
class FiedlerClass:
    """Outcome of the two-case classification of a tree's Fiedler vector.

    Kind ``"I"``: the vector has zeros; ``characteristic_vertex`` is the unique
    zero vertex with a nonzero neighbor and ``zero_set`` collects all zeros.
    Kind ``"II"``: no zeros; ``characteristic_edge`` is the unique edge
    ``(p, q)`` whose endpoints satisfy ``x(p) > 0 > x(q)``.
    """

    kind: str
    characteristic_vertex: int | None = None
    zero_set: frozenset = frozenset()
    characteristic_edge: tuple[int, int] | None = None


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian ``L = D - A`` as a dense float array."""
    L = np.zeros((g.n, g.n), dtype=float)
    for u, v in g.edges:
        L[u, v] = -1.0
        L[v, u] = -1.0
        L[u, u] += 1.0
        L[v, v] += 1.0
    return L


def eigen_symmetric(matrix) -> Spectrum:
    """Diagonalize a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    Raises:
        NotSymmetric: when the input is not square, has a non-finite entry,
            or deviates from symmetry by more than :data:`SYMMETRY_TOL` in
            any entry.
        NoConvergence: when LAPACK reports that the solver failed.
    """
    A = np.array(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NotSymmetric("matrix has a non-finite entry")
    if A.size and float(np.max(np.abs(A - A.T))) > SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        values, vectors = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from None
    return Spectrum(values, vectors)


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue; positive iff the graph is connected.

    Raises:
        TooSmall: for graphs with fewer than two vertices.
    """
    if g.n < 2:
        raise TooSmall("algebraic connectivity needs at least two vertices")
    spectrum = eigen_symmetric(laplacian(g))
    return float(spectrum.values[1])


def _snap_zeros(x: np.ndarray) -> tuple[np.ndarray, float]:
    """``x`` with entries within ``ZERO_ENTRY_REL_TOL * max|x|`` of zero set
    to exactly ``0.0``, and that maximum."""
    scale = float(np.max(np.abs(x)))
    return np.where(np.abs(x) <= ZERO_ENTRY_REL_TOL * scale, 0.0, x), scale


def _sign_normalized(x: np.ndarray) -> np.ndarray:
    vals, scale = _snap_zeros(x)
    lead = int(np.argmax(np.abs(vals) >= (1.0 - ZERO_ENTRY_REL_TOL) * scale))
    if vals[lead] < 0:
        vals = -vals
    return vals + 0.0  # turns -0.0 into 0.0


def fiedler_vector(g: Graph) -> FiedlerData:
    """Algebraic connectivity with a unit eigenvector orthogonal to all-ones.

    Raises:
        TooSmall: for graphs with fewer than two vertices.
        NotConnected: when the graph is disconnected (the second eigenvalue
            would be another kernel vector, not a Fiedler vector).
    """
    if g.n < 2:
        raise TooSmall("Fiedler vectors need at least two vertices")
    if not is_connected(g):
        raise NotConnected("Fiedler vectors are defined for connected graphs")
    spectrum = eigen_symmetric(laplacian(g))
    alpha = float(spectrum.values[1])
    multiplicity = int(
        np.count_nonzero(np.abs(spectrum.values - alpha) <= EIGENVALUE_MATCH_TOL)
    )
    vector = _sign_normalized(spectrum.vectors[:, 1])
    return FiedlerData(alpha=alpha, vector=vector, multiplicity=multiplicity)


def rayleigh_quotient(g: Graph, x) -> float:
    """Edge-sum Rayleigh quotient ``sum (x_u - x_v)^2 / sum x_v^2``.

    Raises:
        DimensionMismatch: when ``len(x) != g.n``.
        ZeroVector: for the zero vector.
    """
    vec = np.asarray(x, dtype=float)
    if vec.shape != (g.n,):
        raise DimensionMismatch(
            f"vector of shape {vec.shape} against graph of order {g.n}"
        )
    denom = float(np.dot(vec, vec))
    if denom == 0.0:
        raise ZeroVector("Rayleigh quotient of the zero vector")
    num = 0.0
    for u, v in g.edges:
        d = vec[u] - vec[v]
        num += d * d
    return num / denom


def _check_monotone_from_zero_root(t: Graph, vals: np.ndarray, z: int) -> None:
    """Every path leaving ``z`` must be all-zero, strictly increasing, or
    strictly decreasing (entering nonzero territory only on its first step)."""
    adj = t.adjacency
    stack = [(w, z, 0.0, "zero") for w in sorted(adj[z], reverse=True)]
    while stack:
        v, parent, prev, mode = stack.pop()
        val = vals[v]
        if mode == "zero":
            if val == 0.0:
                nxt = "zero"
            elif parent == z:
                nxt = "inc" if val > 0.0 else "dec"
            else:
                raise ClassificationInconsistent(
                    f"path from vertex {z} leaves the zero set after vertex {parent}"
                )
        elif mode == "inc":
            if not val > prev:
                raise ClassificationInconsistent(
                    f"values fail to increase strictly at vertex {v}"
                )
            nxt = "inc"
        else:
            if not val < prev:
                raise ClassificationInconsistent(
                    f"values fail to decrease strictly at vertex {v}"
                )
            nxt = "dec"
        for w in adj[v]:
            if w != parent:
                stack.append((w, v, val, nxt))


def _check_strict_paths(
    t: Graph, vals: np.ndarray, start: int, forbidden: int, increasing: bool
) -> None:
    adj = t.adjacency
    stack = [(w, start, vals[start]) for w in adj[start] if w != forbidden]
    while stack:
        v, parent, prev = stack.pop()
        val = vals[v]
        ok = val > prev if increasing else val < prev
        if not ok:
            direction = "increase" if increasing else "decrease"
            raise ClassificationInconsistent(
                f"values fail to strictly {direction} at vertex {v}"
            )
        for w in adj[v]:
            if w != parent:
                stack.append((w, v, val))


def classify_fiedler(t: Graph, data: FiedlerData) -> FiedlerClass:
    """Classify a tree's Fiedler vector into the zero-set / sign-change cases.

    Entries within ``1e-7 * max|entry|`` of zero count as zeros.  If zeros
    exist, the zero set must induce a connected subtree with exactly one
    vertex adjacent to the rest of the tree (the characteristic vertex), and
    values along every path leaving it must be strictly monotone or all zero.
    Otherwise exactly one edge joins oppositely signed vertices (the
    characteristic edge) and values strictly increase away from its positive
    end and strictly decrease away from its negative end.

    Raises:
        NotATree: when ``t`` is not a tree.
        DimensionMismatch: when the vector length is wrong.
        ClassificationInconsistent: when the structure above fails beyond
            tolerance (this would contradict the vector being a Fiedler
            vector of a tree).
    """
    if not is_tree(t):
        raise NotATree("classification is defined for trees only")
    x = np.asarray(data.vector, dtype=float)
    if x.shape != (t.n,):
        raise DimensionMismatch(
            f"vector of shape {x.shape} against tree of order {t.n}"
        )
    vals, scale = _snap_zeros(x)
    if scale == 0.0:
        raise ClassificationInconsistent("the zero vector cannot be classified")
    zero_set = frozenset(int(v) for v in np.flatnonzero(vals == 0.0))

    if zero_set:
        # induced connectivity of the zero set
        start = min(zero_set)
        seen = {start}
        frontier = [start]
        adj = t.adjacency
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w in zero_set and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen != zero_set:
            raise ClassificationInconsistent(
                "zero set does not induce a connected subtree"
            )
        boundary = sorted(
            v for v in zero_set if any(w not in zero_set for w in adj[v])
        )
        if len(boundary) != 1:
            raise ClassificationInconsistent(
                f"expected one zero vertex with nonzero neighbors, found {len(boundary)}"
            )
        z = boundary[0]
        _check_monotone_from_zero_root(t, vals, z)
        return FiedlerClass(
            kind="I", characteristic_vertex=z, zero_set=zero_set
        )

    sign_edges = [(u, v) for u, v in t.sorted_edges() if vals[u] * vals[v] < 0.0]
    if len(sign_edges) != 1:
        raise ClassificationInconsistent(
            f"expected one edge with oppositely signed ends, found {len(sign_edges)}"
        )
    u, v = sign_edges[0]
    p, q = (u, v) if vals[u] > 0.0 else (v, u)
    _check_strict_paths(t, vals, p, q, increasing=True)
    _check_strict_paths(t, vals, q, p, increasing=False)
    return FiedlerClass(kind="II", characteristic_edge=(p, q))
