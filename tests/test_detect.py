"""Isolation forest, LOF, rank and bottom-k."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocad import detect
from ocad.detect import (
    RankVector,
    ScoreVector,
    bottom_k,
    isolation_forest,
    lof,
    rank,
    render_score_table,
    score_csv_bytes,
)
from ocad.errors import DegenerateMatrixWarning, KTooLarge, TooFewRows

from conftest import make_matrix
from oracles import brute_lof, dense_lof


# --------------------------------------------------------- isolation forest

def test_iforest_identical_rows_equal_scores():
    F = make_matrix(np.ones((10, 3)))
    with pytest.warns(DegenerateMatrixWarning):
        sv = isolation_forest(F, seed=0)
    assert np.all(sv.scores == sv.scores[0])


def test_iforest_two_distinct_points_score_zero():
    # each tree separates the pair at depth 1, so E[h] = 1 and, with the
    # exact harmonic-number adjustment c(2) = 1, s = 2^-1 and 0.5 - s = 0
    F = make_matrix([[0.0], [1.0]], row_ids=["a", "b"])
    for seed in range(5):
        sv = isolation_forest(F, n_trees=25, seed=seed)
        assert sv.scores[0] == 0.0
        assert sv.scores[1] == 0.0


def test_iforest_planted_outlier_is_minimum():
    rng = np.random.default_rng(123)
    inliers = rng.uniform(size=(100, 2))
    X = np.vstack([inliers, [[10.0, 10.0]]])
    F = make_matrix(X)
    for seed in range(1, 11):
        sv = isolation_forest(F, seed=seed)
        assert int(np.argmin(sv.scores)) == 100


def test_iforest_deterministic_under_seed():
    rng = np.random.default_rng(7)
    F = make_matrix(rng.normal(size=(50, 4)))
    a = isolation_forest(F, seed=9)
    b = isolation_forest(F, seed=9)
    assert np.array_equal(a.scores, b.scores)
    c = isolation_forest(F, seed=10)
    assert not np.array_equal(a.scores, c.scores)


def test_iforest_outlier_identity_stable_under_permutation():
    rng = np.random.default_rng(15)
    X = np.vstack([rng.normal(size=(60, 3)), [[25.0, 25.0, 25.0]]])
    ids = [f"o{i:03d}" for i in range(61)]
    perm = rng.permutation(61)
    a = isolation_forest(make_matrix(X, row_ids=ids), seed=3)
    b = isolation_forest(make_matrix(X[perm], row_ids=[ids[i] for i in perm]), seed=3)
    assert a.object_ids[int(np.argmin(a.scores))] == "o060"
    assert b.object_ids[int(np.argmin(b.scores))] == "o060"
    assert abs(a.scores.mean() - b.scores.mean()) < 0.05


def test_iforest_monotone_response_to_displacement():
    # moving a point further out never increases its mean rank over 10 seeds
    rng = np.random.default_rng(77)
    bulk = rng.normal(size=(80, 3))
    offsets = [2.0, 4.0, 8.0, 16.0]
    mean_ranks = []
    for off in offsets:
        X = np.vstack([bulk, [[off, 0.0, 0.0]]])
        F = make_matrix(X)
        ranks_of_point = []
        for seed in range(10):
            sv = isolation_forest(F, seed=seed)
            ranks_of_point.append(int(rank(sv).ranks[-1]))
        mean_ranks.append(np.mean(ranks_of_point))
    for earlier, later in zip(mean_ranks, mean_ranks[1:]):
        assert later <= earlier + 1.0


def test_iforest_params_snapshot():
    sv = isolation_forest(make_matrix([[0.0], [1.0], [2.0]]), n_trees=7, subsample=2, seed=5)
    assert sv.method == "IF"


def test_iforest_too_few_rows():
    with pytest.raises(TooFewRows):
        isolation_forest(make_matrix([[1.0]]))


# -------------------------------------------------------------------- LOF

def test_lof_uniform_grid_interior_near_one():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    X = np.column_stack([xs.ravel(), ys.ravel()])
    sv = lof(make_matrix(X), k=4)
    grid = sv.scores.reshape(10, 10)
    interior = grid[2:8, 2:8]
    assert np.all(interior >= -1.2) and np.all(interior <= -0.8)


def test_lof_planted_density_outlier_is_minimum():
    rng = np.random.default_rng(6)
    spread = 0.1
    c1 = rng.normal(size=(30, 2)) * spread
    c2 = rng.normal(size=(30, 2)) * spread + np.array([5.0, 5.0])
    outlier = np.array([[2.5, 2.5 + 10 * spread]])
    X = np.vstack([c1, c2, outlier])
    sv = lof(make_matrix(X), k=5)
    assert int(np.argmin(sv.scores)) == 60
    assert sv.scores[60] < np.partition(sv.scores, 1)[1]  # strictly the minimum


def test_lof_all_coincident_points():
    sv = lof(make_matrix(np.ones((25, 3))), k=5)
    assert np.all(sv.scores == -1.0)


def test_lof_matches_brute_force():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 31))
        k = int(rng.integers(2, min(6, n - 1)))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        sv = lof(make_matrix(X), k=k)
        expected = brute_lof(X, k)
        assert np.allclose(sv.scores, expected, atol=1e-9)


def test_lof_argmin_invariant_under_global_scaling():
    rng = np.random.default_rng(12)
    X = np.vstack([rng.normal(size=(40, 3)), [[9.0, 9.0, 9.0]]])
    a = lof(make_matrix(X), k=7)
    b = lof(make_matrix(X * 1234.5), k=7)
    assert int(np.argmin(a.scores)) == int(np.argmin(b.scores))
    assert np.allclose(a.scores, b.scores, rtol=1e-9)


def test_lof_too_few_rows():
    with pytest.raises(TooFewRows):
        lof(make_matrix(np.zeros((5, 2))), k=5)


@pytest.mark.parametrize("k", [0, -1])
def test_lof_rejects_k_below_one(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        lof(make_matrix(np.arange(10.0).reshape(5, 2)), k=k)


@pytest.mark.parametrize("n, d, k, decimals", [(300, 3, 20, None), (600, 4, 5, 1), (1000, 8, 20, 1)])
def test_lof_in_one_block_equals_dense_reference_bit_for_bit(n, d, k, decimals):
    # up to 1,024 distinct rows lof runs as one block, and without copies it
    # keeps the whole-matrix arithmetic; rows rounded to 0.1 tie often
    X = np.random.default_rng(n + d).normal(size=(n, d))
    if decimals is not None:
        X = np.round(X, decimals)
    assert len(np.unique(X, axis=0)) == n
    assert np.array_equal(lof(make_matrix(X), k=k).scores, dense_lof(X, k))


def test_lof_in_blocks_is_close_to_dense_reference():
    # several blocks: BLAS may round a block's Gram product in the last bit
    # unlike the whole product, so only closeness is promised
    X = np.random.default_rng(2508).normal(size=(2500, 8))
    np.testing.assert_allclose(lof(make_matrix(X), k=20).scores, dense_lof(X, 20), rtol=1e-12, atol=0)


@st.composite
def _tied_matrices(draw):
    """Small matrices of halves with copied rows: many ties and coincident
    points. Halves keep every Gram product exact, so no BLAS kernel can round
    a block's product differently from the whole product; a difference
    between block sizes is then one of the blocking itself."""
    n = draw(st.integers(3, 40))
    d = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(-4, 4), min_size=n * d, max_size=n * d))
    X = np.array(cells, dtype=np.float64).reshape(n, d) / 2
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        X[dst] = X[src]
    return X, draw(st.integers(1, n - 1))


@settings(max_examples=80, deadline=None)
@given(_tied_matrices())
def test_lof_in_blocks_matches_brute_force_and_one_block(case):
    X, k = case
    F = make_matrix(X)
    whole = lof(F, k=k).scores
    # relative as well as absolute: a point beside a coincident cluster of
    # more than k points scores about -1e300 through the reachability floor
    np.testing.assert_allclose(whole, brute_lof(X, k), rtol=1e-9, atol=1e-9)
    distinct = len(np.unique(X, axis=0))
    for rows in (2, 3, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "_BLOCK_ELEMENTS", rows * distinct)
            assert np.array_equal(lof(F, k=k).scores, whole)


def test_lof_memory_stays_bounded_on_a_coincident_cluster():
    # 5,000 copies of one point would give 25M tie-inclusive neighbor
    # entries, and one 6,000 x 6,000 float64 matrix alone takes 288 MB
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6000, 3))
    X[:5000] = X[0]
    F = make_matrix(X)
    tracemalloc.start()
    try:
        sv = lof(F, k=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert np.all(sv.scores[:5000] == -1.0)


# ------------------------------------------------------------------- rank

def test_rank_simple():
    sv = ScoreVector(("a", "b", "c"), np.array([-2.0, -1.0, 0.0]), "IF")
    rv = rank(sv)
    assert dict(zip(rv.object_ids, rv.ranks)) == {"a": 0, "b": 1, "c": 2}


def test_rank_tie_breaks_lexicographically():
    cases = [
        (("b", "a"), [-1.0, -1.0], {"a": 0, "b": 1}),
        (("a\x00", "a"), [-1.0, -1.0], {"a": 0, "a\x00": 1}),  # a trailing NUL still sorts after
        (("b", "a"), [-0.0, 0.0], {"a": 0, "b": 1}),  # -0.0 ties with 0.0
        (("a", "b"), [0.0, -0.0], {"a": 0, "b": 1}),
    ]
    for ids, scores, expected in cases:
        sv = ScoreVector(ids, np.array(scores), "IF")
        rv = rank(sv)
        assert dict(zip(rv.object_ids, rv.ranks)) == expected
        by_rank = sorted(expected, key=expected.get)
        assert bottom_k(rv, len(ids)) == by_rank
        rows = score_csv_bytes(sv).decode().splitlines()[1:]
        assert [r.rsplit(",", 1)[0] for r in rows] == by_rank
        table = render_score_table([sv]).splitlines()[1:]
        assert [line.split()[0] for line in table] == by_rank


def test_rank_strict_order_all_pairs():
    rng = np.random.default_rng(4)
    scores = np.round(rng.normal(size=100), 1)  # plenty of ties
    ids = tuple(f"o{i:03d}" for i in rng.permutation(100))
    rv = rank(ScoreVector(ids, scores, "IF"))
    assert sorted(rv.ranks) == list(range(100))
    by_id = dict(zip(rv.object_ids, rv.ranks))
    score_of = dict(zip(ids, scores))
    for o1 in ids:
        for o2 in ids:
            if score_of[o1] < score_of[o2]:
                assert by_id[o1] < by_id[o2]
            elif score_of[o1] > score_of[o2]:
                assert by_id[o1] > by_id[o2]


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_rank_is_bijection_and_order_preserving(values):
    ids = tuple(f"x{i:02d}" for i in range(len(values)))
    scores = np.asarray(values, dtype=float)
    rv = rank(ScoreVector(ids, scores, "IF"))
    assert sorted(rv.ranks) == list(range(len(values)))
    for i in range(len(values)):
        for j in range(len(values)):
            if scores[i] < scores[j]:
                assert rv.ranks[i] < rv.ranks[j]


# --------------------------------------------------------------- bottom_k

def _abc_ranks():
    sv = ScoreVector(("a", "b", "c"), np.array([-2.0, -1.0, 0.0]), "IF")
    return rank(sv)


def test_bottom_k_zero():
    assert bottom_k(_abc_ranks(), 0) == []


def test_bottom_k_all():
    assert bottom_k(_abc_ranks(), 3) == ["a", "b", "c"]


def test_bottom_k_prefix():
    rv = RankVector(("c", "a", "b"), np.array([2, 0, 1]))
    assert bottom_k(rv, 2) == ["a", "b"]


def test_bottom_k_too_large():
    with pytest.raises(KTooLarge):
        bottom_k(_abc_ranks(), 4)


def test_render_score_table_layout():
    sv_if = ScoreVector(("PO_23667", "PO_23507"), np.array([-0.200785, -0.200311]), "IF")
    sv_lof = ScoreVector(("PO_23667", "PO_23507"), np.array([-40.049412, -7.200163]), "LOF")
    text = render_score_table([sv_if, sv_lof])
    first_row = text.splitlines()[1]
    assert first_row.startswith("PO_23667")
    assert "-0.200785" in first_row
    assert "-40.049412" in first_row
