"""Eigensolver, algebraic connectivity, and Fiedler-vector classification."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from algconn import (
    ClassificationInconsistent,
    DimensionMismatch,
    FiedlerData,
    Graph,
    NotATree,
    NotConnected,
    NotSymmetric,
    Spectrum,
    TooLarge,
    TooSmall,
    ZeroVector,
    algebraic_connectivity,
    classify_fiedler,
    complete_graph,
    cycle_graph,
    eigen_symmetric,
    fiedler_vector,
    from_edge_list,
    laplacian,
    parse_graph6,
    path_graph,
    rayleigh_quotient,
    star_graph,
)
from algconn.enumeration import all_trees
from algconn.spectral import DENSE_CEILING


def test_laplacian_structure(zoo):
    for g in zoo.values():
        L = laplacian(g)
        assert L.shape == (g.n, g.n)
        assert np.array_equal(L, L.T)
        assert np.all(L.sum(axis=1) == 0)
        for v in range(g.n):
            assert L[v, v] == g.degree(v)
        for u, v in g.edges:
            assert L[u, v] == -1


def test_dense_ceiling_raises_before_allocating():
    # n = 100000 would need an 80 GB Laplacian; the check comes first
    with pytest.raises(TooLarge):
        laplacian(Graph(100_000))
    with pytest.raises(TooLarge):
        algebraic_connectivity(Graph(100_000))
    with pytest.raises(TooLarge):
        laplacian(Graph(DENSE_CEILING + 1))
    with pytest.raises(TooLarge):
        fiedler_vector(path_graph(DENSE_CEILING + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 30])
def test_eigen_symmetric_against_lapack(n):
    """Eigenvalues must match LAPACK; eigenvectors must actually solve the
    eigen-equation with an orthonormal basis."""
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    m = (a + a.T) / 2
    spec = eigen_symmetric(m)
    scale = max(1.0, float(np.linalg.norm(m)))
    expected = np.linalg.eigvalsh(m)
    assert np.all(np.diff(spec.values) >= 0)
    assert np.max(np.abs(spec.values - expected)) <= 1e-10 * scale
    residual = m @ spec.vectors - spec.vectors * spec.values
    assert np.max(np.abs(residual)) <= 1e-9 * scale
    gram = spec.vectors.T @ spec.vectors
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_eigen_symmetric_exact_on_diagonal():
    spec = eigen_symmetric(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(spec.values, [-1.0, 2.0, 3.0])


def test_eigen_symmetric_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        eigen_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetric):
        eigen_symmetric(np.zeros((2, 3)))


@pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
def test_eigen_symmetric_rejects_non_finite():
    with pytest.raises(NotSymmetric):
        eigen_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotSymmetric):
        eigen_symmetric(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_eigen_symmetric_integer_input():
    spec = eigen_symmetric([[2, 1], [1, 2]])
    assert np.allclose(spec.values, [1.0, 3.0], atol=1e-12)


def test_alpha_known_graphs(zoo):
    assert abs(algebraic_connectivity(zoo["k2"]) - 2.0) <= 1e-12
    assert abs(algebraic_connectivity(zoo["p3"]) - 1.0) <= 1e-10
    assert abs(algebraic_connectivity(zoo["k5"]) - 5.0) <= 1e-10
    assert abs(algebraic_connectivity(zoo["star5"]) - 1.0) <= 1e-10
    # cycle: 2 - 2 cos(2 pi / n)
    expected = 2.0 - 2.0 * math.cos(2.0 * math.pi / 6.0)
    assert abs(algebraic_connectivity(zoo["c6"]) - expected) <= 1e-10


def test_alpha_zero_iff_disconnected(zoo):
    assert abs(algebraic_connectivity(zoo["two_edges"])) <= 1e-10
    assert algebraic_connectivity(zoo["p4"]) > 1e-3
    with pytest.raises(TooSmall):
        algebraic_connectivity(zoo["k1"])


def test_kernel_dimension_counts_components():
    g = from_edge_list(6, [(0, 1), (2, 3), (4, 5)])
    spec = eigen_symmetric(laplacian(g))
    assert int(np.count_nonzero(np.abs(spec.values) <= 1e-10)) == 3


def test_fiedler_vector_properties():
    for g in (path_graph(6), star_graph(4), cycle_graph(5), complete_graph(4)):
        data = fiedler_vector(g)
        x = data.vector
        assert abs(float(np.linalg.norm(x)) - 1.0) <= 1e-12
        assert abs(float(x.sum())) <= 1e-9
        residual = laplacian(g) @ x - data.alpha * x
        assert np.max(np.abs(residual)) <= 1e-9
        # documented sign rule: the first entry of maximal magnitude is positive
        lead = int(np.argmax(np.abs(x) >= (1.0 - 1e-7) * np.max(np.abs(x))))
        assert x[lead] > 0
        assert data.multiplicity >= 1


@pytest.mark.parametrize(
    "g",
    [parse_graph6("F??}O"), path_graph(6), cycle_graph(5)],
    ids=["F??}O", "P6", "C5"],
)
def test_fiedler_sign_ignores_rounding_noise(g, monkeypatch):
    """The normalized vector is byte-equal whether the solver returns x, -x,
    or x with its zero entries perturbed by 1e-15."""
    spec = eigen_symmetric(laplacian(g))
    expected = fiedler_vector(g).vector
    x = spec.vectors[:, 1]
    noisy = x + np.where(np.abs(x) <= 1e-7, 1e-15 * (-1.0) ** np.arange(g.n), 0.0)
    for column in (x, -x, noisy, -noisy):
        vectors = spec.vectors.copy()
        vectors[:, 1] = column
        monkeypatch.setattr(
            "algconn.spectral.eigen_symmetric",
            lambda _m, v=vectors: Spectrum(spec.values, v),
        )
        assert fiedler_vector(g).vector.tobytes() == expected.tobytes()


def test_fiedler_vector_multiplicity():
    assert fiedler_vector(star_graph(5)).multiplicity == 4
    assert fiedler_vector(complete_graph(4)).multiplicity == 3
    assert fiedler_vector(path_graph(5)).multiplicity == 1


def test_fiedler_vector_rejects_bad_input(zoo):
    with pytest.raises(NotConnected):
        fiedler_vector(zoo["two_edges"])
    with pytest.raises(TooSmall):
        fiedler_vector(zoo["k1"])


def test_rayleigh_quotient_bounds_alpha():
    g = path_graph(7)
    alpha = algebraic_connectivity(g)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=7)
        x -= x.mean()  # orthogonal to the kernel
        assert rayleigh_quotient(g, x) >= alpha - 1e-9
    data = fiedler_vector(g)
    assert abs(rayleigh_quotient(g, data.vector) - alpha) <= 1e-9


def test_rayleigh_quotient_rejects_bad_vectors():
    g = path_graph(3)
    with pytest.raises(DimensionMismatch):
        rayleigh_quotient(g, [1.0, 2.0])
    with pytest.raises(ZeroVector):
        rayleigh_quotient(g, [0.0, 0.0, 0.0])


def test_classify_path_even():
    """An even path has no zero entry: one sign-change edge in the middle."""
    g = path_graph(4)
    cls = classify_fiedler(g, fiedler_vector(g))
    assert cls.kind == "II"
    assert cls.characteristic_edge in ((1, 2), (2, 1))
    assert cls.characteristic_vertex is None
    assert cls.zero_set == frozenset()


def test_classify_path_odd():
    g = path_graph(5)
    cls = classify_fiedler(g, fiedler_vector(g))
    assert cls.kind == "I"
    assert cls.characteristic_vertex == 2
    assert cls.zero_set == frozenset({2})
    assert cls.characteristic_edge is None


def test_classify_star_center_is_characteristic():
    g = star_graph(5)
    cls = classify_fiedler(g, fiedler_vector(g))
    assert cls.kind == "I"
    assert cls.characteristic_vertex == 0
    assert 0 in cls.zero_set


def test_classify_characteristic_edge_signs():
    g = path_graph(6)
    data = fiedler_vector(g)
    cls = classify_fiedler(g, data)
    assert cls.kind == "II"
    p, q = cls.characteristic_edge
    assert data.vector[p] > 0 > data.vector[q]


def test_classify_rejects_non_trees(zoo):
    with pytest.raises(NotATree):
        classify_fiedler(zoo["c5"], fiedler_vector(zoo["c5"]))


def test_classify_rejects_bad_vectors():
    g = path_graph(4)
    data = fiedler_vector(g)
    with pytest.raises(DimensionMismatch):
        classify_fiedler(g, FiedlerData(data.alpha, data.vector[:3], 1))
    with pytest.raises(ClassificationInconsistent):
        classify_fiedler(g, FiedlerData(data.alpha, np.zeros(4), 1))
    # a constant vector is no Fiedler vector: every edge difference vanishes
    with pytest.raises(ClassificationInconsistent):
        classify_fiedler(g, FiedlerData(data.alpha, np.ones(4), 1))


@pytest.mark.parametrize(
    "values",
    [
        [2, 1, 0, -2, -1],  # Type I, not monotone beyond the negative side
        [1, 2, 0, -1, -0.5],  # Type I, not monotone on either side
        [1, 0, 0, -1, -2],  # two zero vertices with nonzero neighbours
    ],
)
def test_classify_rejects_inconsistent_type_one(values):
    with pytest.raises(ClassificationInconsistent):
        classify_fiedler(path_graph(5), FiedlerData(0.0, np.array(values, float), 1))


@pytest.mark.parametrize(
    "values",
    [
        [1, -1, 1, -1],  # every edge changes sign
        [1, -1, -2, 1],  # two sign-change edges
        [2, 1, -1, -0.5],  # Type II, not monotone beyond the negative end
    ],
)
def test_classify_rejects_inconsistent_type_two(values):
    with pytest.raises(ClassificationInconsistent):
        classify_fiedler(path_graph(4), FiedlerData(0.0, np.array(values, float), 1))


def test_classify_hand_built_type_one():
    vector = np.array([1, 0.5, 0, -1, -2], float)
    cls = classify_fiedler(path_graph(5), FiedlerData(0.0, vector, 1))
    assert cls.kind == "I"
    assert cls.characteristic_vertex == 2
    assert cls.zero_set == frozenset({2})


#: sha256 of ``classify_fiedler``'s outcome on every vector with entries in
#: {-2, -1, 0, 1, 2} on every tree of order 2-6, recorded before the zero-set
#: flood fill and the path walker were folded into one breadth-first pass.
CLASSIFIER_OUTCOMES_SHA256 = "c9a93ab253926a832ff34e007f653f6e39de48fe32269467b15fc0b25222bcef"


def test_classifier_outcomes_pinned():
    lines = []
    accepted = 0
    for n in range(2, 7):
        for t in all_trees(n):
            for values in itertools.product((-2, -1, 0, 1, 2), repeat=n):
                data = FiedlerData(0.0, np.array(values, float), 1)
                try:
                    cls = classify_fiedler(t, data)
                except ClassificationInconsistent:
                    lines.append("rejected")
                    continue
                accepted += 1
                lines.append(
                    f"{cls.kind} {cls.characteristic_vertex} "
                    f"{sorted(cls.zero_set)} {cls.characteristic_edge}"
                )
    assert (accepted, len(lines) - accepted) == (4772, 99753)
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFIER_OUTCOMES_SHA256
