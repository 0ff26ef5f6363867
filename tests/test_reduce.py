"""PCA and FastMap embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ocad.errors import TooFewRows
from ocad.reduce import fastmap, pca

from conftest import make_matrix
from oracles import jacobi_eigh


def _pairwise(X):
    diffs = X[:, None, :] - X[None, :, :]
    return np.sqrt((diffs * diffs).sum(axis=-1))


# -------------------------------------------------------------------- PCA

def test_pca_recovers_single_direction():
    rng = np.random.default_rng(0)
    X = np.zeros((30, 3))
    X[:, 0] = rng.normal(size=30)
    emb = pca(make_matrix(X), k=1)
    direction = emb.component_vectors[0]
    assert abs(direction @ np.array([1.0, 0.0, 0.0])) >= 0.99
    assert direction[0] > 0  # sign convention: largest-magnitude entry positive


def test_pca_identical_rows():
    X = np.ones((8, 4)) * 2.5
    emb = pca(make_matrix(X), k=2)
    assert np.allclose(emb.matrix.values, 0.0)
    assert np.allclose(emb.explained_variance, 0.0)


def test_pca_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(40, 8)) @ np.diag(rng.uniform(0.2, 3.0, size=8))
    F = make_matrix(X)
    emb = pca(F, k=3)

    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / len(X)
    eigval, eigvec = jacobi_eigh(cov)
    order = np.argsort(eigval)[::-1][:3]
    V = eigvec[:, order].T

    def reconstruction_error(components):
        proj = Xc @ components.T @ components
        return float(((Xc - proj) ** 2).sum())

    err_impl = reconstruction_error(emb.component_vectors)
    err_oracle = reconstruction_error(V)
    assert err_impl == pytest.approx(err_oracle, rel=1e-6)
    assert np.allclose(np.sort(emb.explained_variance), np.sort(eigval[order]), rtol=1e-9, atol=1e-12)


def test_pca_orthonormal_components_and_variance_order():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(25, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
    emb = pca(make_matrix(X), k=6)
    gram = emb.component_vectors @ emb.component_vectors.T
    assert np.allclose(gram, np.eye(6), atol=1e-6)
    ev = emb.explained_variance
    assert np.all(np.diff(ev) <= 1e-12)
    total_var = X.var(axis=0).sum()
    assert ev.sum() <= total_var + 1e-9


def test_pca_coords_are_centered_projection():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(15, 5))
    F = make_matrix(X)
    emb = pca(F, k=3)
    Xc = X - X.mean(axis=0)
    assert np.allclose(emb.matrix.values, Xc @ emb.component_vectors.T, atol=1e-12)


def test_pca_row_permutation_permutes_coords():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 4))
    perm = rng.permutation(12)
    emb = pca(make_matrix(X), k=2)
    emb_perm = pca(make_matrix(X[perm]), k=2)
    assert np.allclose(emb_perm.matrix.values, emb.matrix.values[perm], atol=1e-12)


def test_pca_rejects_oversized_k():
    with pytest.raises(ValueError):
        pca(make_matrix(np.zeros((3, 2))), k=3)


# ----------------------------------------------------------------- FastMap

def test_fastmap_two_points():
    X = np.array([[0.0, 0.0], [0.0, 4.0]])
    emb = fastmap(make_matrix(X), k=1, seed=1)
    assert sorted(emb.matrix.values[:, 0]) == [0.0, 4.0]
    assert len(emb.pivot_pairs) == 1


def test_fastmap_identical_points():
    X = np.ones((5, 3))
    emb = fastmap(make_matrix(X), k=4, seed=0)
    assert np.all(emb.matrix.values == 0.0)


def test_fastmap_345_triangle_exact():
    X = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    emb = fastmap(make_matrix(X), k=2, seed=0)
    orig = _pairwise(X)
    got = _pairwise(emb.matrix.values)
    assert np.all(np.abs(got - orig) <= 1e-9)


def test_fastmap_contractive_on_random_data():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, 10))
    emb = fastmap(make_matrix(X), k=4, seed=2)
    orig = _pairwise(X)
    got = _pairwise(emb.matrix.values)
    assert np.all(got <= orig + 1e-9)


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(3, 12), st.integers(2, 5)),
        elements=st.floats(-100, 100),
    ),
    st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_fastmap_contractive_and_deterministic(X, seed):
    F = make_matrix(X)
    emb1 = fastmap(F, k=3, seed=seed)
    emb2 = fastmap(F, k=3, seed=seed)
    assert np.array_equal(emb1.matrix.values, emb2.matrix.values)  # bit-for-bit
    orig = _pairwise(X)
    got = _pairwise(emb1.matrix.values)
    assert np.all(got <= orig + 1e-9)


def test_fastmap_rejects_single_row():
    with pytest.raises(TooFewRows):
        fastmap(make_matrix(np.zeros((1, 2))), k=1)


def test_embedding_csv_layout(tmp_path):
    from ocad.features import feature_csv_bytes

    emb = fastmap(make_matrix(np.array([[0.0, 0.0], [0.0, 4.0]]), row_ids=["a", "b"]), k=2, seed=0)
    path = tmp_path / "emb.csv"
    path.write_bytes(feature_csv_bytes(emb.matrix))
    lines = path.read_text().splitlines()
    assert lines[0] == "object_id,dim_0,dim_1"
    assert lines[1].startswith("a,") and lines[2].startswith("b,")
