"""Feature-score aggregation and the anomalous-feature report."""

import numpy as np
import pytest

from ocad.aggregate import FeatureScoreTable, anomalous_feature_report, feature_scores
from ocad.detect import ScoreVector
from ocad.errors import RowMismatch
from ocad.features import column_label, column_name, extract_features, normalize

from conftest import make_matrix
from oracles import brute_fea_scores


def _scores(ids, values):
    return ScoreVector(tuple(ids), np.asarray(values, dtype=float), "IF")


def test_zero_scores_give_zero_feature_scores():
    F = make_matrix([[1.0, 5.0], [2.0, 3.0], [4.0, 0.0]])
    table = feature_scores(F, _scores(F.row_ids, [0, 0, 0]))
    assert all(r.fea_score == 0.0 for r in table.rows)


def test_single_object_feature_score_is_product():
    F = make_matrix([[7.0]])
    v = normalize(F).values[0, 0]
    table = feature_scores(F, _scores(F.row_ids, [-0.3]))
    assert table.rows[0].fea_score == pytest.approx(-0.3 * v, abs=1e-15)


def test_feature_scores_match_double_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.normal(size=(25, 10))
        F = make_matrix(X)
        N = normalize(F)
        s = rng.normal(size=25)
        table = feature_scores(F, _scores(N.row_ids, s))
        expected = dict(zip(N.columns, brute_fea_scores(N.values, s)))
        for r in table.rows:
            assert abs(r.fea_score - expected[r.feature_name]) <= 1e-12


def test_feature_scores_linearity():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(15, 4))
    F = make_matrix(X)
    s1, s2 = rng.normal(size=15), rng.normal(size=15)
    a, b = 2.5, -0.75
    combined = feature_scores(F, _scores(F.row_ids, a * s1 + b * s2))
    t1 = {r.feature_name: r.fea_score for r in feature_scores(F, _scores(F.row_ids, s1)).rows}
    t2 = {r.feature_name: r.fea_score for r in feature_scores(F, _scores(F.row_ids, s2)).rows}
    for r in combined.rows:
        assert r.fea_score == pytest.approx(a * t1[r.feature_name] + b * t2[r.feature_name], abs=1e-12)


def test_feature_scores_invariant_under_row_permutation():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 5))
    s = rng.normal(size=12)
    ids = [f"o{i:02d}" for i in range(12)]
    perm = rng.permutation(12)
    t1 = feature_scores(make_matrix(X, row_ids=ids), _scores(ids, s))
    t2 = feature_scores(
        make_matrix(X[perm], row_ids=[ids[i] for i in perm]),
        _scores([ids[i] for i in perm], s[perm]),
    )
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.feature_name == r2.feature_name
        assert r1.fea_score == pytest.approx(r2.fea_score, abs=1e-12)
        assert r1.support_count == r2.support_count


def test_constant_feature_inherits_negated_mean_score():
    F = make_matrix([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]], columns=["const", "varies"])
    s = np.array([-0.5, 0.25, 0.55])
    table = feature_scores(F, _scores(F.row_ids, s))
    by_name = {r.feature_name: r.fea_score for r in table.rows}
    assert by_name["const"] == pytest.approx(-s.mean(), abs=1e-12)


def test_support_counts_use_pre_normalization_values():
    F = make_matrix([[0.0], [2.0], [5.0]], columns=["c"])
    table = feature_scores(F, _scores(F.row_ids, [0, 0, 0]))
    assert table.rows[0].support_count == 2  # two nonzero raw values


def test_row_mismatch():
    F = make_matrix([[1.0], [2.0]])
    with pytest.raises(RowMismatch):
        feature_scores(F, _scores(("x", "y"), [0.0, 0.0]))


# ----------------------------------------------------------------- report

def test_report_surfaces_anomaly_correlated_indicator():
    n = 20
    scores = np.linspace(-1.0, 1.0, n)  # first 5 objects are the anomalies
    flag = np.zeros(n)
    flag[:5] = 1.0
    noise = np.linspace(0.0, 1.0, n) ** 2
    F = make_matrix(
        np.column_stack([flag, noise, np.ones(n)]),
        row_ids=[f"o{i:03d}" for i in range(n)],
        columns=[("lifecyclecontains", "Cancel Purchase Order"), ("numvalue", "amount"), "constant"],
    )
    table = anomalous_feature_report(F, _scores(F.row_ids, scores), top_n=3)
    top_names = [r.feature_name for r in table.rows]
    assert "(lifecyclecontains Cancel Purchase Order = 1)" in top_names


def test_report_excludes_zero_variance_features():
    n = 6
    F = make_matrix(
        np.column_stack([np.ones(n), np.arange(n, dtype=float)]),
        row_ids=[f"o{i:03d}" for i in range(n)],
        columns=["constant", "varies"],
    )
    table = anomalous_feature_report(F, _scores(F.row_ids, -np.ones(n)), top_n=10)
    for r in table.rows:
        assert "constant" not in r.feature_name


def test_report_top_n_zero_is_empty():
    F = make_matrix(np.arange(4, dtype=float), row_ids=[f"o{i:03d}" for i in range(4)], columns=["x"])
    table = anomalous_feature_report(F, _scores(F.row_ids, np.zeros(4)), top_n=0)
    assert table.rows == ()


def test_report_rows_sorted_ascending():
    n = 12
    rng = np.random.default_rng(0)
    F = make_matrix(
        rng.integers(0, 3, size=(n, 4)).astype(float),
        row_ids=[f"o{i:03d}" for i in range(n)],
    )
    table = anomalous_feature_report(F, _scores(F.row_ids, rng.normal(size=n)), top_n=50)
    scores_list = [r.fea_score for r in table.rows]
    assert scores_list == sorted(scores_list)


def test_render_feature_name_variants():
    """A column key renders to its header string and to its report label."""
    cases = [
        (("=", ("lifecyclecontains", "Cancel Purchase Order"), 1.0),
         "(lifecyclecontainsCancel Purchase Order=1)", "(lifecyclecontains Cancel Purchase Order = 1)"),
        (("interactions", "invoice"), "interactionsinvoice", "interactions invoice"),
        (("=", ("dfg", "Create PO", "Receive Invoice"), 2.0),
         "(dfg_Create PO_Receive Invoice=2)", "(dfg Create PO -> Receive Invoice = 2)"),
        (("prop", ("numvalue", "amount")), "propnumvalueamount", "prop numvalue amount"),
        (("lifecyclestarttime",), "lifecyclestarttime", "lifecyclestarttime"),
        (("strvalue", "vendor", "Acme"), "strvaluevendor_Acme", "strvalue vendor_Acme"),
    ]
    for key, name, label in cases:
        assert (column_name(key), column_label(key)) == (name, label)


def test_table_text_and_csv_round():
    table = FeatureScoreTable(rows=())
    assert table.to_csv_bytes().startswith(b"feature,count,fea_score")
    n = 5
    F = make_matrix(np.arange(n, dtype=float) % 2, row_ids=[f"o{i:03d}" for i in range(n)], columns=["flag"])
    t = anomalous_feature_report(F, _scores(F.row_ids, -np.ones(n)), top_n=5)
    text = t.to_text()
    assert "Feature (with Value)" in text and "Count" in text and "FEA_SCORE" in text
