"""Dimensionality reduction: PCA and FastMap.

Both take a :class:`FeatureMatrix` and return an :class:`Embedding` whose
``matrix`` has the same rows and one column ``("dim", str(i))`` per axis
(headers ``dim_0 .. dim_{k-1}``), so it feeds the detectors and the feature
CSV like any other matrix. PCA is the classical covariance eigendecomposition
with a deterministic sign convention. FastMap picks pivot pairs with the
seeded farthest-pair heuristic, a fixed :data:`PIVOT_ITERS` sweeps per axis,
and projects onto the pivot line axis by axis, carrying the rows' residual
vectors forward; it is contractive on Euclidean inputs, also in floating
point, and never needs the full pairwise distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TooFewRows
from .features import FeatureMatrix

DEFAULT_FASTMAP_K = 8
PIVOT_ITERS = 5


@dataclass(frozen=True)
class Embedding:
    matrix: FeatureMatrix  # the input's rows, columns dim_0..dim_{k-1}
    component_vectors: np.ndarray | None = None  # PCA: (k, d), orthonormal rows
    explained_variance: np.ndarray | None = None  # PCA: per component
    pivot_pairs: tuple[tuple[str, str], ...] | None = None  # FastMap: per axis


def _coords_matrix(F: FeatureMatrix, coords: np.ndarray) -> FeatureMatrix:
    return replace(F, keys=tuple(("dim", str(i)) for i in range(coords.shape[1])), values=coords)


def pca(F: FeatureMatrix, k: int) -> Embedding:
    """Project onto the top-``k`` principal components.

    Components are eigenvectors of the population covariance matrix in
    descending eigenvalue order; each component's largest-magnitude entry is
    made positive so results are reproducible. Rank deficiency is fine:
    trailing components just carry explained variance 0.
    """
    X = F.values
    n, d = X.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k must be in 1..min(rows, cols) = {min(n, d)}, got {k}")
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / n
    eigval, eigvec = np.linalg.eigh(cov)
    order = np.argsort(eigval)[::-1][:k]
    components = eigvec[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return Embedding(
        matrix=_coords_matrix(F, Xc @ components.T),
        component_vectors=components,
        explained_variance=np.maximum(eigval[order], 0.0),
    )


def fastmap(F: FeatureMatrix, k: int = DEFAULT_FASTMAP_K, seed: int = 0) -> Embedding:
    """Distance-preserving projection into ``k`` dimensions.

    Per axis: pivots (a, b) come from :data:`PIVOT_ITERS` alternating
    farthest-point sweeps from a seeded random start; the coordinate of row i
    is its projection (r_i - r_a) . u on the unit pivot direction
    u = (r_b - r_a) / d(a,b), so x_a = 0 and x_b = d(a,b); each row's residual
    vector r (the input row at first) then loses that component. Distances
    are direct differences of residuals, not the Gram form, whose cancellation
    noise would become coordinates of about its square root once the rows'
    span is used up; so the embedding stays contractive in floating point. A zero
    pivot distance means all residual distances vanished; remaining axes stay
    zero and pivoting stops.
    """
    X = F.values
    n = X.shape[0]
    if n < 2:
        raise TooFewRows("fastmap needs at least 2 rows")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    coords = np.zeros((n, k))
    resid = X.copy()

    def sq_dists(p: int) -> np.ndarray:
        diffs = resid - resid[p]
        return np.einsum("ij,ij->i", diffs, diffs)

    pivots: list[tuple[str, str]] = []
    for axis in range(k):
        a = int(rng.integers(n))
        b = a
        for _ in range(PIVOT_ITERS):
            b = int(np.argmax(sq_dists(a)))
            a = int(np.argmax(sq_dists(b)))
        u = resid[b] - resid[a]
        dab = np.sqrt(u @ u)
        if dab <= 0.0:
            break
        u /= dab
        coords[:, axis] = (resid - resid[a]) @ u
        resid -= np.outer(coords[:, axis], u)
        pivots.append((F.row_ids[a], F.row_ids[b]))

    return Embedding(matrix=_coords_matrix(F, coords), pivot_pairs=tuple(pivots))

