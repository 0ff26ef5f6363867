"""Object anomaly scoring: Isolation Forest, Local Outlier Factor, ranks.

Score conventions follow the presentation of anomaly scores as negative
numbers: the lower (more negative) the score, the more anomalous the object.
Isolation Forest emits ``0.5 - s(x)`` with the standard anomaly measure
``s(x) = 2^(-E[h(x)]/c(psi))``; LOF emits the negated factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil, log2

import numpy as np

from ._csv import csv_bytes, text_table
from .errors import DegenerateMatrixWarning, KTooLarge, TooFewRows

DEFAULT_N_TREES = 100
# The largest n_trees PipelineParams accepts: at about 2 ms per tree on 8k
# rows, 10,000 trees take about 22 s, and run time grows with the count.
MAX_TREES = 10_000
DEFAULT_SUBSAMPLE = 256
DEFAULT_LOF_K = 20

# Floor for mean reachability so coincident clusters (zero reach) get a huge
# finite density instead of an infinite one; their density ratios are then
# exactly 1, and scores stay finite everywhere.
_REACH_FLOOR = 1e-300

# LOF builds its distance matrix this many entries at a time, in blocks of
# whole rows: 1 << 20 float64 values are 8 MB per temporary.
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class ScoreVector:
    """Per-object anomaly scores; lower means more anomalous."""

    object_ids: tuple[str, ...]
    scores: np.ndarray
    method: str  # "IF" | "LOF"


@dataclass(frozen=True)
class RankVector:
    """Injective ranks 0..n-1 aligned with ``object_ids``; 0 = most anomalous."""

    object_ids: tuple[str, ...]
    ranks: np.ndarray


def _path_length_adjustments(max_size: int) -> np.ndarray:
    """c(m) = 2*H(m-1) - 2*(m-1)/m for m = 0..max_size, with exact harmonic
    numbers (c(0) = c(1) = 0, c(2) = 1)."""
    c = np.zeros(max_size + 1)
    if max_size >= 2:
        m = np.arange(2, max_size + 1, dtype=np.float64)
        harmonic = np.cumsum(1.0 / np.arange(1, max_size, dtype=np.float64))
        c[2:] = 2.0 * harmonic - 2.0 * (m - 1.0) / m
    return c


def _isolate(X: np.ndarray, sample: np.ndarray, rows: np.ndarray, depth: int, limit: int, rng, c: np.ndarray,
             out: np.ndarray) -> None:
    """Grow one isolation tree on the rows ``sample`` and route ``rows``
    through it as it grows, writing each routed row's path length to ``out``.
    The draws are those of growing the tree depth-first, left before right."""
    if depth >= limit or len(sample) <= 1:
        out[rows] = depth + c[len(sample)]
        return
    f = int(rng.integers(X.shape[1]))
    col = X[sample, f]
    p = float(rng.uniform(col.min(), col.max()))
    left = col < p
    routed_left = X[rows, f] < p
    _isolate(X, sample[left], rows[routed_left], depth + 1, limit, rng, c, out)
    _isolate(X, sample[~left], rows[~routed_left], depth + 1, limit, rng, c, out)


def isolation_forest(
    F,
    n_trees: int = DEFAULT_N_TREES,
    subsample: int = DEFAULT_SUBSAMPLE,
    seed: int = 0,
) -> ScoreVector:
    """Score every row with an ensemble of random isolation trees.

    Each tree is grown on a random subsample of ``min(subsample, n)`` rows by
    splitting on a uniformly random feature at a uniformly random value in
    the node's [min, max] range, down to single-point nodes or height
    ``ceil(log2(psi))``; truncated leaves contribute the average-path
    adjustment c(size). Identical rows yield identical scores and trigger a
    :class:`DegenerateMatrixWarning`.
    """
    X = np.asarray(F.values, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise TooFewRows("isolation forest needs at least 2 rows")
    if d < 1:
        raise ValueError("isolation forest needs at least 1 column")
    if np.all(X == X[0]):
        warnings.warn("all rows identical; every object gets the same score", DegenerateMatrixWarning)

    psi = min(subsample, n)
    limit = ceil(log2(psi))
    c = _path_length_adjustments(max(psi, 2))
    rng = np.random.default_rng(seed)

    total = np.zeros(n)
    all_idx = np.arange(n)
    path = np.zeros(n)
    for _ in range(n_trees):
        _isolate(X, rng.choice(n, size=psi, replace=False), all_idx, 0, limit, rng, c, path)
        total += path
    expected = total / n_trees
    s = np.power(2.0, -expected / c[psi])
    return ScoreVector(object_ids=tuple(F.row_ids), scores=0.5 - s, method="IF")


def lof(F, k: int = DEFAULT_LOF_K) -> ScoreVector:
    """Local Outlier Factor with Euclidean distances, emitted negated.

    Neighborhoods include every point within the k-distance (ties kept).
    Reachability of a from b is max(k-dist(b), d(a, b)); local reachability
    density is the reciprocal mean reachability; the factor is the mean
    neighbor-to-self density ratio. Coincident clusters of more than k points
    get factor 1 via the reachability floor.

    Identical rows are collapsed into one row with a multiplicity, at
    distance exactly 0 from each other, and the distances are computed
    ``_BLOCK_ELEMENTS`` at a time, so memory is O(n*k) plus one block.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    X = np.asarray(F.values, dtype=np.float64)
    n = X.shape[0]
    if n < k + 1:
        raise TooFewRows(f"lof with k={k} needs at least {k + 1} rows, got {n}")

    # distinct rows in first-occurrence order, so that without copies U is X
    _, first, inverse, counts = np.unique(X, axis=0, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    first, counts, inverse = first[order], counts[order], np.argsort(order)[inverse]

    sq = (X * X).sum(axis=1)
    U = X if len(first) == n else X[first]
    rows, cols, dists, weights, kdist = _neighborhoods(U, sq[first], counts, k)
    reach = np.maximum(kdist[cols], dists)
    lrd = 1.0 / np.maximum(_row_means(reach, weights, rows), _REACH_FLOOR)
    factor = _row_means(lrd[cols] / lrd[rows], weights, rows)

    return ScoreVector(object_ids=tuple(F.row_ids), scores=-factor[inverse], method="LOF")


def _neighborhoods(U, sq, counts, k):
    """Tie-inclusive k-neighborhoods of the distinct rows ``U``, whose rows
    occur ``counts`` times, as entries ``(rows, cols, dists, weights)`` in
    row-major order, and the k-distance of every row. An entry's weight is
    the number of copies it stands for.

    One block of rows at a time gets its distances in Gram form,
    ``sqrt(max((sq_i + sq_j) - 2 * (u_i . u_j), 0))``, with an infinite
    diagonal, and its k-th smallest distance per row. A row with copies has
    a zero diagonal instead: its other copies are neighbors at distance 0.
    Counted with their copies, the k nearest may then lie nearer than that
    k-th smallest distance, which only bounds the k-distance.
    """
    nu = len(U)
    # Fewer than k + 1 distinct rows occur only with copies; the bound is then
    # a row's largest distance.
    kth = min(k, nu) - 1
    has_copies = counts > 1
    # A block has two rows or more: numpy computes a one-row product with a
    # matrix-vector kernel, whose sums may round differently.
    starts = list(range(0, nu, max(2, _BLOCK_ELEMENTS // nu)))
    if len(starts) > 1 and starts[-1] == nu - 1:
        starts.pop()
    bound = np.empty(nu)
    row_blocks, col_blocks, dist_blocks = [], [], []
    for s, e in zip(starts, starts[1:] + [nu]):
        diag = (np.arange(e - s), np.arange(s, e))
        D = np.add(sq[s:e, None], sq)
        G = np.matmul(U[s:e], U.T)
        np.multiply(2.0, G, out=G)
        np.subtract(D, G, out=D)
        np.maximum(D, 0.0, out=D)
        np.sqrt(D, out=D)
        D[diag] = np.where(has_copies[s:e], 0.0, np.inf)
        np.copyto(G, D)
        G.partition(kth, axis=1)
        bound[s:e] = G[:, kth]
        del G
        near = D <= bound[s:e, None]
        near[diag] = has_copies[s:e]
        flat = np.flatnonzero(near)  # far faster than a 2-d nonzero
        r, c = np.divmod(flat, nu)
        row_blocks.append(r + s)
        col_blocks.append(c)
        dist_blocks.append(D.ravel()[flat])
        del D, near
    rows, cols, dists = map(np.concatenate, (row_blocks, col_blocks, dist_blocks))
    weights = np.where(cols == rows, counts[rows] - 1, counts[cols])

    # Walk each row's entries by distance until their copies add up to k;
    # without copies that is the bound itself.
    lengths = np.bincount(rows, minlength=nu)
    start = np.cumsum(lengths) - lengths
    by_dist = np.lexsort((dists, rows))
    total = np.cumsum(weights[by_dist])
    within = total - np.repeat(total[start] - weights[by_dist][start], lengths)
    short = np.bincount(rows, weights=within < k, minlength=nu).astype(np.intp)
    kdist = dists[by_dist][start + short]
    keep = dists <= kdist[rows]
    return rows[keep], cols[keep], dists[keep], weights[keep], kdist


def _row_means(values, weights, rows) -> np.ndarray:
    """Weighted mean per row of entries in row-major order, every row
    nonempty. Rows of equal length are stacked and summed along one axis, so
    with unit weights every mean equals the per-row ``.mean()`` bit for bit."""
    lengths = np.bincount(rows)
    start = np.cumsum(lengths) - lengths
    out = np.empty(len(lengths))
    for m in np.unique(lengths).tolist():
        sel = np.flatnonzero(lengths == m)
        idx = start[sel, None] + np.arange(m)
        w = weights[idx]
        out[sel] = (values[idx] * w).sum(axis=1) / w.sum(axis=1)
    return out


def _order(ids, scores) -> np.ndarray:
    """Positions ascending by (score, id): the ids are sorted first, then a
    stable sort of the scores keeps that order among ties (-0.0 ties 0.0).
    The ids are compared as Python strings; a numpy string array would drop
    trailing NULs."""
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    return by_id[np.argsort(np.asarray(scores)[by_id], kind="stable")]


def rank(scores: ScoreVector) -> RankVector:
    """Injective rank: ascending by (score, object id); rank 0 is the most
    anomalous object, ties broken lexicographically."""
    order = _order(scores.object_ids, scores.scores)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    return RankVector(object_ids=scores.object_ids, ranks=ranks)


def bottom_k(ranks: RankVector, k: int) -> list[str]:
    """The k most anomalous object ids, most anomalous first."""
    n = len(ranks.object_ids)
    if k > n:
        raise KTooLarge(f"k={k} exceeds {n} ranked objects")
    return [ranks.object_ids[i] for i in np.argsort(ranks.ranks, kind="stable")[:k].tolist()]


# ------------------------------------------------------------------- output

def score_csv_bytes(scores: ScoreVector) -> bytes:
    """Two-column CSV, most anomalous first."""
    order = _order(scores.object_ids, scores.scores)
    ids = scores.object_ids
    rows = ([ids[i], repr(x)] for i, x in zip(order.tolist(), scores.scores[order].tolist()))
    return csv_bytes(["object_id", "score"], rows)


def rank_csv_bytes(ranks: RankVector) -> bytes:
    """Two-column CSV in rank order."""
    order = np.argsort(ranks.ranks, kind="stable")
    ids = ranks.object_ids
    rows = ([ids[i], int(r)] for i, r in zip(order.tolist(), ranks.ranks[order].tolist()))
    return csv_bytes(["object_id", "rank"], rows)


def render_score_table(vectors: list[ScoreVector]) -> str:
    """Aligned text table of one or more score vectors over the same objects,
    sorted by the first vector's scores (most anomalous first)."""
    ids = vectors[0].object_ids
    for v in vectors[1:]:
        if v.object_ids != ids:
            raise ValueError("score vectors are not aligned")
    order = _order(ids, vectors[0].scores).tolist()
    return text_table(["Object ID"] + [f"{v.method} Score" for v in vectors],
                      [[ids[i]] + [f"{v.scores[i]:.6f}" for v in vectors] for i in order])
