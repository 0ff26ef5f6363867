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
from .errors import DegenerateMatrixWarning, InvalidConfig, KTooLarge, TooFewRows
from .ocel import _order, _segments_by_length

DEFAULT_N_TREES = 100
# The largest n_trees PipelineParams accepts: at about 2 ms per tree on 8k
# rows, 10,000 trees take about 22 s, and run time grows with the count.
MAX_TREES = 10_000
DEFAULT_SUBSAMPLE = 256
DEFAULT_LOF_K = 20
# The most neighbor entries, rows times k, that lof accepts: it keeps one per
# row and neighbor, and counts a row as at least _ROW_ENTRIES. Its tracemalloc
# peak is about 25 bytes an entry at large k (2,000 rows of 8 columns at
# k = 1,999, 1,000 rows at k = 999, ties, copies, 64 columns), and 32.5 at
# k = 20 on 40,000 rows and 38.6 on 8,000, where the rows' own arrays weigh
# more. Below k = 20 they outweigh the entries: 331 bytes a row at k = 1 and
# 396 at k = 5 on 40,000 rows, within 20 entries of 44 bytes. At 44 bytes 90
# million entries stay within 4 GB; the 8k bench at k = 20 takes 160,000.
MAX_LOF_ENTRIES = 90_000_000
_ROW_ENTRIES = 20

# Floor for mean reachability so coincident clusters (zero reach) get a huge
# finite density instead of an infinite one; their density ratios are then
# exactly 1, and scores stay finite everywhere.
_REACH_FLOOR = 1e-300

# LOF picks its candidate neighbors from products of this many entries, in
# blocks of whole rows (of one row when a row is longer), 512 kB of float64,
# and walks the candidates of consecutive blocks once they add up to an
# eighth of it, at about 100 bytes each. Every block reads the whole of its
# right-hand factor, so small blocks cost time at many rows: at 32,000 rows
# lof took about 1.5 times as long as with 1 << 20 entries, and 1.25 times
# with 1 << 17.
_BLOCK_ELEMENTS = 1 << 16
# Its k-distance bounds compare this many rows, sorted by axis 0, with the
# sorted rows this many places on either side, or k places when k is larger.
_BOUND_ROWS = 128
_BOUND_REACH = 512


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
    X = F.values
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
    distance exactly 0 from each other. Every distance takes one direct form,
    so the scores do not depend on the block size or the BLAS thread count,
    and memory is O(n*k) plus one block of ``_BLOCK_ELEMENTS``. More than
    :data:`MAX_LOF_ENTRIES` rows times k, at least 20 a row, raise
    :class:`InvalidConfig` before anything is allocated.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    X = F.values
    n = X.shape[0]
    if n < k + 1:
        raise TooFewRows(f"lof with k={k} needs at least {k + 1} rows, got {n}")
    if n * max(k, _ROW_ENTRIES) > MAX_LOF_ENTRIES:
        raise InvalidConfig(f"lof with k={k} on {n} rows counts as {n * max(k, _ROW_ENTRIES)} neighbor entries, "
                            f"at least {_ROW_ENTRIES} a row, over the bound of {MAX_LOF_ENTRIES}")

    # distinct rows in first-occurrence order, so that without copies U is X
    _, first, inverse, counts = np.unique(X, axis=0, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    first, counts, inverse = first[order], counts[order], np.argsort(order)[inverse]

    sq = (X * X).sum(axis=1)
    U = X if len(first) == n else X[first]
    lengths, cols, dists, weights, kdist = _neighborhoods(U, sq[first], counts, k)
    totals = np.add.reduceat(weights, np.cumsum(lengths) - lengths)  # integer weights: exact totals
    reach = np.maximum(kdist[cols], dists, out=dists)
    lrd = 1.0 / np.maximum(_row_sums(np.multiply(reach, weights, out=reach), lengths) / totals, _REACH_FLOOR)
    ratios = np.take(lrd, cols, out=reach, mode="clip")  # "raise" would buffer a copy
    ratios /= np.repeat(lrd, lengths)
    factor = _row_sums(np.multiply(ratios, weights, out=ratios), lengths) / totals

    return ScoreVector(object_ids=tuple(F.row_ids), scores=-factor[inverse], method="LOF")


def _neighborhoods(U, sq, counts, k):
    """Tie-inclusive k-neighborhoods of the distinct rows ``U``, whose rows
    occur ``counts`` times: each row's number of entries, the entries' int32
    ``cols``, ``dists`` and int32 ``weights`` in row-major order, and the
    k-distance of every row. An entry's weight is the number of copies it
    stands for.

    Only the candidates of :func:`_candidates` get a distance, in the direct
    form of :func:`_distances`. A row's diagonal is a candidate, at distance
    0, only for a row with copies: its other copies are neighbors at
    distance 0. Each row's candidates are walked by distance until their
    copies add up to k: that distance is its k-distance, and the candidates
    within it its neighborhood.
    """
    counts = counts.astype(np.int32)
    kdist = np.empty(len(U))
    parts = [], [], [], []
    for s, e, r, col in _candidates(U, sq, counts > 1, k):
        dist = _distances(U, r, col)
        weight = np.where(r == col, counts[r] - 1, counts[col])
        r -= s
        # Walk each row's candidates by distance until their copies add up to
        # k; the weights are integers, so their sums are exact.
        lengths = np.bincount(r, minlength=e - s)
        start = np.cumsum(lengths) - lengths
        by_dist = np.lexsort((dist, r))
        copies = weight[by_dist]
        total = np.cumsum(copies)
        within = total - np.repeat(total[start] - copies[start], lengths)
        short = np.bincount(r, weights=within < k, minlength=e - s).astype(np.intp)
        kdist[s:e] = dist[by_dist[start + short]]
        near = dist <= kdist[s:e][r]
        for joined, x in zip(parts, (np.bincount(r[near], minlength=e - s), col[near], dist[near], weight[near])):
            joined.append(x)
    entries = []
    for blocks in parts:  # each is freed before the next is joined
        entries.append(np.concatenate(blocks))
        blocks.clear()
    return (*entries, kdist)


def _candidates(U, sq, has_copies, k):
    """Yield ``(s, e, rows, cols)``, the row-major int32 candidate entries of
    the rows ``s:e``, for consecutive row ranges of about ``_BLOCK_ELEMENTS
    // 8`` candidates or of one block. They include every entry whose direct
    square is within the bound of :func:`_squared_bounds`, which stand for at
    least k copies a row, and every entry of equal distance.

    The rows are taken a block at a time, and a block's product ``[U[s:e],
    1] @ [U, -a].T``, ``g_ij - a_j``, keeps the entries with ``g_ij - a_j >=
    c_i``; the diagonal is kept only for a row with copies. The test holds
    however the product rounds, and no bit of a distance comes from it.
    """
    nu, d = U.shape
    # With u = 2^-53, a direct square S_ij whose root is at most sqrt(T_i)
    # has S_ij <= T_i (1 + 5u), and an exact square D_ij within
    # T_i (1 + (d + 8)u), so u_i . u_j >= (|u_i|^2 + |u_j|^2 - D_ij) / 2. A
    # product of d + 1 terms lies within (d + 1)u of the sum of their
    # magnitudes, and |u|^2 within du of sq, so g_ij - a_j is at least
    # sq_j (1/2 - (d + 2)u) - a_j (1 + (d + 2)u) + (sq_i - T_i) / 2
    # - (d + 2)u sq_i - (d/2 + 4)u T_i. a_j lies (2d + 4)u sq_j below
    # sq_j / 2, so the terms in j are positive after its rounding, and c_i
    # (d + 6)u (sq_i + T_i) below (sq_i - T_i) / 2, more than the rest and
    # its own rounding; 2^-1000 covers the subnormal range. An infinite T_i
    # keeps every entry. Fewer than k + 1 distinct rows occur only with
    # copies; the bound is then a row's largest square.
    T = _squared_bounds(U, sq, has_copies, k, min(k, nu) - 1)
    c = 0.5 * (sq - T) - (d + 6) * 2.0**-53 * (sq + T) - 2.0**-1000
    del T
    left = np.hstack([U, np.ones((nu, 1))])
    right = np.hstack([U, -(sq * (0.5 - (2 * d + 4) * 2.0**-53))[:, None]])
    # One buffer each serves every block, so that no block faults in new pages.
    height = max(1, _BLOCK_ELEMENTS // nu)
    products, passed = np.empty((height, nu)), np.empty((height, nu), bool)
    picked, held, first = [], 0, 0
    for s in range(0, nu, height):
        e = min(s + height, nu)
        keep = np.greater_equal(np.matmul(left[s:e], right.T, out=products[:e - s]), c[s:e, None],
                                out=passed[:e - s])
        keep.reshape(-1)[s::nu + 1] = has_copies[s:e]  # the diagonal
        picked.append(np.flatnonzero(keep) + s * nu)  # far faster than a 2-d nonzero
        held += len(picked[-1])
        if held >= _BLOCK_ELEMENTS // 8 or e == nu:
            yield first, e, *(x.astype(np.int32) for x in np.divmod(np.concatenate(picked), nu))
            picked, held, first = [], 0, e


def _distances(U, rows, cols):
    """The Euclidean distance between rows ``rows`` and ``cols`` of ``U`` in
    the one direct form that lof and its oracles share: the square root of
    the columns' squared differences, summed left to right."""
    total = np.zeros(len(rows))
    for x in U.T:
        diff = x[rows]
        diff -= x[cols]
        diff *= diff
        total += diff
    return np.sqrt(total, out=total)


def _squared_bounds(U, sq, has_copies, k, kth):
    """An upper bound on each row's ``kth``-smallest squared distance in the
    direct form of :func:`_distances`, diagonal included (0 for a row with
    copies, else infinite).

    Rows sorted by axis 0 are compared ``_BOUND_ROWS`` at a time with the
    sorted rows within ``max(_BOUND_REACH, k)`` places, themselves included,
    which is at least ``kth + 1`` rows; the ``kth``-smallest there bounds the
    row's. They are compared in the Gram form ``max(fl(fl(sq_i + sq_j) -
    2 g_ij), 0)``: with u = 2^-53, a d-term dot product within
    ``d * u * (sq_i + sq_j) / 2`` of exact and each ``sq`` within ``d * u``
    of its norm, that lies within ``(2d + 6) * u * (sq_i + sq_j)`` of the
    exact square D, and the direct square within ``(d + 3) * u * D``, at most
    ``(2d + 7) * u * (sq_i + sq_j)``. So each bound is raised by
    ``(4d + 16) * u`` times ``sq_i`` plus the largest ``sq_j`` of the
    compared rows, and rounded up.
    """
    nu, d = U.shape
    reach = max(_BOUND_REACH, k)
    step = max(1, min(_BOUND_ROWS, _BLOCK_ELEMENTS // min(nu, 2 * reach + _BOUND_ROWS)))
    # (without columns there is one distinct row)
    order = np.argsort(U[:, 0] if d else sq, kind="stable")
    V, sqv, diag = U[order], sq[order], np.where(has_copies[order], 0.0, np.inf)
    bound = np.empty(nu)
    for s in range(0, nu, step):
        e = min(s + step, nu)
        lo, hi = max(0, s - reach), min(nu, e + reach)
        P = np.add(sqv[s:e, None], sqv[lo:hi])
        P -= 2.0 * (V[s:e] @ V[lo:hi].T)
        np.maximum(P, 0.0, out=P)
        P[np.arange(e - s), np.arange(s - lo, e - lo)] = diag[s:e]
        P.partition(kth, axis=1)
        error = (4 * d + 16) * 2.0**-53 * (sqv[s:e] + sqv[lo:hi].max()) + 2.0**-1000
        bound[order[s:e]] = np.nextafter(P[:, kth] + error, np.inf)
    return bound


def _row_sums(values, lengths) -> np.ndarray:
    """Sum of each row's entries, stored back to back ``lengths`` at a time,
    every row nonempty; each equals its own slice's ``.sum()`` bit for bit."""
    out = np.empty(len(lengths))
    for sel, idx in _segments_by_length(lengths):
        out[sel] = values[idx].sum(axis=1)
    return out


def rank(scores: ScoreVector) -> RankVector:
    """Injective rank: ascending by (score, object id); rank 0 is the most
    anomalous object, ties broken lexicographically."""
    return RankVector(object_ids=scores.object_ids, ranks=np.argsort(_order(scores.object_ids, scores.scores)))


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
    rows = ([ids[i], x] for i, x in zip(order.tolist(), scores.scores[order].tolist()))
    return csv_bytes(["object_id", "score"], rows)


def rank_csv_bytes(ranks: RankVector) -> bytes:
    """Two-column CSV in rank order."""
    order = np.argsort(ranks.ranks, kind="stable")
    ids = ranks.object_ids
    rows = ([ids[i], r] for i, r in zip(order.tolist(), ranks.ranks[order].tolist()))
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
