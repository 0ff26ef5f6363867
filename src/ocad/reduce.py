"""Dimensionality reduction: PCA and FastMap.

Both take a :class:`FeatureMatrix` and return an :class:`Embedding` whose
``matrix`` has the same rows and one column ``("dim", str(i))`` per axis
(headers ``dim_0 .. dim_{k-1}``), so it feeds the detectors and the feature
CSV like any other matrix. PCA is the classical covariance eigendecomposition
with a deterministic sign convention. FastMap picks pivot pairs with the
seeded farthest-pair heuristic and projects onto the pivot line axis by axis,
carrying residual distances forward; it is contractive on Euclidean inputs
and never needs the full pairwise distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TooFewRows
from .features import FeatureMatrix

DEFAULT_FASTMAP_K = 8
DEFAULT_PIVOT_ITERS = 5


@dataclass(frozen=True)
class Embedding:
    matrix: FeatureMatrix  # the input's rows, columns dim_0..dim_{k-1}
    method: str  # "PCA" | "FastMap"
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
    X = np.asarray(F.values, dtype=np.float64)
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
        method="PCA",
        component_vectors=components,
        explained_variance=np.maximum(eigval[order], 0.0),
    )


def fastmap(
    F: FeatureMatrix, k: int = DEFAULT_FASTMAP_K, pivot_iters: int = DEFAULT_PIVOT_ITERS, seed: int = 0
) -> Embedding:
    """Distance-preserving projection into ``k`` dimensions.

    Per axis: pivots (a, b) come from ``pivot_iters`` alternating
    farthest-point sweeps from a seeded random start; the coordinate of row i
    is (d(a,i)^2 + d(a,b)^2 - d(b,i)^2) / (2 d(a,b)) with x_a = 0 and
    x_b = d(a,b). Residual squared distances for later axes subtract the
    coordinate differences, clamped at 0 against floating-point dust. A zero
    pivot distance means all residual distances vanished; remaining axes stay
    zero and pivoting stops.
    """
    X = np.asarray(F.values, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise TooFewRows("fastmap needs at least 2 rows")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    coords = np.zeros((n, k))
    sq_norms = (X * X).sum(axis=1)

    def resid_sq_dists(p: int, axis: int) -> np.ndarray:
        base = sq_norms + sq_norms[p] - 2.0 * (X @ X[p])
        if axis:
            diffs = coords[:, :axis] - coords[p, :axis]
            base = base - (diffs * diffs).sum(axis=1)
        return np.maximum(base, 0.0)

    pivots: list[tuple[str, str]] = []
    for axis in range(k):
        a = int(rng.integers(n))
        b = a
        for _ in range(pivot_iters):
            b = int(np.argmax(resid_sq_dists(a, axis)))
            a = int(np.argmax(resid_sq_dists(b, axis)))
        d2a = resid_sq_dists(a, axis)
        d2b = resid_sq_dists(b, axis)
        d2ab = d2a[b]
        if d2ab <= 0.0:
            break
        coords[:, axis] = (d2a + d2ab - d2b) / (2.0 * np.sqrt(d2ab))
        pivots.append((F.row_ids[a], F.row_ids[b]))

    return Embedding(matrix=_coords_matrix(F, coords), method="FastMap", pivot_pairs=tuple(pivots))

