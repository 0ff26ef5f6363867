"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import hashlib
import json
import time

import numpy as np

from ocad.aggregate import anomalous_feature_report, feature_scores
from ocad.cli import main as cli_main
from ocad.detect import ScoreVector, isolation_forest, lof, rank
from ocad.features import extract_features, normalize
from ocad.ocel import parse_ocel_json, serialize_ocel_json
from ocad.pipeline import PipelineParams, build_matrix, detect_objects
from ocad.reduce import fastmap, pca
from ocad.synthgen import AnomalyKind, SynthConfig, generate_blocked_invoices, generate_p2p

from conftest import make_matrix, object_graphs
from oracles import (
    NaiveDerivations,
    assert_matrix_matches_naive,
    brute_fea_scores,
    brute_lof,
)

FULL_RATES = {
    AnomalyKind.MAVERICK_BUYING: 0.1,
    AnomalyKind.POST_MORTEM_PR_CHANGE: 0.1,
    AnomalyKind.DOUBLE_INVOICE: 0.1,
    AnomalyKind.REOPEN_LONG_GAP: 0.05,
}


def _pairwise(X):
    diffs = X[:, None, :] - X[None, :, :]
    return np.sqrt((diffs * diffs).sum(axis=-1))


def test_c01_definition_replay_suite():
    t0 = time.perf_counter()
    for seed in range(5):
        cfg = SynthConfig(n_orders=30, anomaly_rates=FULL_RATES, seed=seed)
        log, _ = generate_p2p(cfg)
        assert len(log.objects) <= 200
        naive = NaiveDerivations(log)
        for o in log.objects:
            assert list(log.lifecycle(o)) == naive.lifecycle(o)
            dfg, efg = object_graphs(log, o)
            assert set(dfg) == naive.dfg(o)
            assert set(efg) == naive.efg(o)
            for ot in log.object_types:
                s = log.interaction_sets(o, ot)
                interact, creation, continuation, cobirth, codeath = naive.interaction_sets(o, ot)
                assert (s.interact, s.creation, s.continuation, s.cobirth, s.codeath) == (
                    interact, creation, continuation, cobirth, codeath,
                )
        for ot in log.object_types:
            objs, rows = naive.feature_map(ot)
            assert_matrix_matches_naive(extract_features(log, ot), objs, rows, time_tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS definition replay on 5 seeded logs ({elapsed:.1f}s)")


def test_c02_normalization_and_feature_score_suite():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        X = rng.normal(size=(25, 10)) * rng.uniform(0.1, 50.0)
        F = make_matrix(X)
        N = normalize(F, epsilon=1e-9)
        assert np.all(N.values >= -1.0) and np.all(N.values <= 1.0)
        assert np.all(N.values.min(axis=0) == -1.0)
        s = rng.normal(size=25)
        table = feature_scores(F, ScoreVector(N.row_ids, s, "IF"))
        expected = dict(zip(N.columns, brute_fea_scores(N.values, s)))
        worst = max(worst, max(abs(r.fea_score - expected[r.feature_name]) for r in table.rows))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 2 PASS normalization bounds and feature scores (max err {worst:.2e})")


def test_c03_rank_law():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        scores = np.round(rng.normal(size=n), 1)
        ids = tuple(f"obj{i:03d}" for i in rng.permutation(n))
        rv = rank(ScoreVector(ids, scores, "IF"))
        assert sorted(rv.ranks) == list(range(n))
        for i in range(n):
            for j in range(n):
                if scores[i] < scores[j]:
                    assert rv.ranks[i] < rv.ranks[j]
                elif scores[i] > scores[j]:
                    assert rv.ranks[i] > rv.ranks[j]
    print("\nACCEPTANCE 3 PASS rank bijection and strict order on 100 vectors")


def test_c04_lof_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 31))
        k = int(rng.integers(2, min(8, n)))
        X = rng.normal(size=(n, int(rng.integers(1, 5)))) * rng.uniform(0.1, 10.0)
        sv = lof(make_matrix(X), k=k)
        worst = max(worst, float(np.max(np.abs(sv.scores - np.asarray(brute_lof(X, k))))))
    assert worst <= 1e-9

    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    grid = lof(make_matrix(np.column_stack([xs.ravel(), ys.ravel()])), k=4)
    interior = (-grid.scores).reshape(10, 10)[2:8, 2:8]
    assert np.all(interior >= 0.8) and np.all(interior <= 1.2)
    print(f"\nACCEPTANCE 4 PASS LOF equals brute force (max err {worst:.2e}); grid interior in [0.8, 1.2]")


def test_c05_iforest_planted_outliers():
    t0 = time.perf_counter()
    good_seeds = 0
    for seed in range(1, 11):
        rng = np.random.default_rng(1000 + seed)
        dims = 2 + (seed - 1) % 7
        inliers = rng.normal(size=(100, dims))
        directions = rng.normal(size=(5, dims))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(10.0, 12.0, size=(5, 1))
        X = np.vstack([inliers, directions * radii])
        sv = isolation_forest(make_matrix(X), seed=seed)
        rv = rank(sv)
        if all(rv.ranks[100 + i] < 10 for i in range(5)):
            good_seeds += 1
    elapsed = time.perf_counter() - t0
    assert good_seeds >= 9
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 5 PASS planted outliers in bottom-10 for {good_seeds}/10 seeds ({elapsed:.1f}s)")


def test_c06_fastmap_distances():
    tri = make_matrix(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
    emb = fastmap(tri, k=2, seed=0)
    assert np.all(np.abs(_pairwise(emb.matrix.values) - _pairwise(tri.values)) <= 1e-9)

    rng = np.random.default_rng(6)
    X = rng.normal(size=(100, 12))
    emb = fastmap(make_matrix(X), k=8, seed=1)
    assert np.all(_pairwise(emb.matrix.values) <= _pairwise(X) + 1e-9)

    correlations = []
    for seed in range(5):
        cfg = SynthConfig(n_orders=200, anomaly_rates={
            AnomalyKind.MAVERICK_BUYING: 0.05,
            AnomalyKind.DOUBLE_INVOICE: 0.05,
            AnomalyKind.REOPEN_LONG_GAP: 0.02,
        }, seed=seed)
        log, _ = generate_p2p(cfg)
        _, Fn = build_matrix(log, PipelineParams(object_type="order", seed=seed))
        emb = fastmap(Fn, k=8, seed=seed)
        iu = np.triu_indices(len(Fn.row_ids), 1)
        corr = np.corrcoef(_pairwise(Fn.values)[iu], _pairwise(emb.matrix.values)[iu])[0, 1]
        assert np.all(_pairwise(emb.matrix.values) <= _pairwise(Fn.values) + 1e-9)
        assert corr >= 0.8, f"seed {seed}: corr {corr}"
        correlations.append(corr)
    print(f"\nACCEPTANCE 6 PASS fastmap exact triangle, contractive, corr >= 0.8 (min {min(correlations):.3f})")


def test_c07_pca_components():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 4)) * np.array([10.0, 1.0, 1.0, 1.0])  # variance ratio 100:1
    emb = pca(make_matrix(X), k=4)
    gram = emb.component_vectors @ emb.component_vectors.T
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-6
    cosine = abs(emb.component_vectors[0] @ np.array([1.0, 0.0, 0.0, 0.0]))
    assert cosine >= 0.99
    print(f"\nACCEPTANCE 7 PASS pca orthonormal; long-axis cosine {cosine:.4f}")


def test_c08_end_to_end_recovery_and_report():
    t0 = time.perf_counter()
    rates = {
        AnomalyKind.MAVERICK_BUYING: 0.05,
        AnomalyKind.DOUBLE_INVOICE: 0.05,
        AnomalyKind.REOPEN_LONG_GAP: 0.02,
    }
    candidates = {
        AnomalyKind.MAVERICK_BUYING: {
            "(dfg Create Purchase Order -> Receive Invoice = 1)",
            "(dfg Receive Invoice -> Submit Purchase Order for Approval = 1)",
            "(dfg Approve Purchase Order -> Receive Invoice = 0)",
            "(dfg Create Purchase Order -> Submit Purchase Order for Approval = 0)",
        },
        AnomalyKind.DOUBLE_INVOICE: {
            "(interactions invoice = 2)",
            "(creation invoice = 2)",
            "(lifecyclecontains Receive Invoice = 2)",
            "(dfg Receive Invoice -> Receive Invoice = 1)",
        },
        AnomalyKind.REOPEN_LONG_GAP: {
            "(lifecyclecontains Close Purchase Order = 1)",
            "(lifecyclecontains (Re)Open Purchase Order = 1)",
            "(dfg Close Purchase Order -> (Re)Open Purchase Order = 1)",
            "(dfg Receive Invoice -> Close Purchase Order = 1)",
        },
    }
    recalls = []
    for seed in range(5):
        cfg = SynthConfig(n_orders=500, anomaly_rates=rates, seed=seed)
        log, truth = generate_p2p(cfg)
        scores, ranks = detect_objects(log, PipelineParams(object_type="order", seed=seed))
        labeled = {o for o, kinds in truth.labels.items() if kinds}
        cutoff = int(0.15 * len(ranks.object_ids))
        position = dict(zip(ranks.object_ids, ranks.ranks))
        recalls.append(sum(1 for o in labeled if position[o] < cutoff) / len(labeled))

        F = extract_features(log, "order")
        table = anomalous_feature_report(F, scores, top_n=10)
        top_names = {r.feature_name for r in table.rows}
        for kind, names in candidates.items():
            assert top_names & names, f"seed {seed}: no {kind.value} indicator in top-10: {sorted(top_names)}"
    elapsed = time.perf_counter() - t0
    mean_recall = float(np.mean(recalls))
    assert mean_recall >= 0.8, recalls
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS bottom-15% recall {mean_recall:.3f} over 5 seeds; report covers all kinds ({elapsed:.1f}s)")


def test_c09_feature_propagation_regression():
    plain, propagated = [], []
    for seed in range(5):
        cfg = SynthConfig(n_orders=400, anomaly_rates={AnomalyKind.BLOCKED_INVOICE: 0.04}, seed=seed)
        log, truth = generate_blocked_invoices(cfg)
        labeled = truth.labeled(AnomalyKind.BLOCKED_INVOICE)
        decile = int(0.10 * len(log.objects_of_type("invoice")))
        for source, sink in ((None, plain), ("order", propagated)):
            params = PipelineParams(object_type="invoice", detector="lof", propagate_from=source, agg="mean", seed=seed)
            _, ranks = detect_objects(log, params)
            position = dict(zip(ranks.object_ids, ranks.ranks))
            sink.append(sum(1 for o in labeled if position[o] < decile) / len(labeled))
    mean_plain, mean_prop = float(np.mean(plain)), float(np.mean(propagated))
    assert mean_plain <= 0.3, plain  # no better than chance (0.1)
    assert mean_prop >= 0.7, propagated
    print(f"\nACCEPTANCE 9 PASS propagation lifts bottom-decile recall {mean_plain:.2f} -> {mean_prop:.2f}")


def test_c10_round_trip_and_cli_reproducibility(tmp_path):
    for seed in range(5):
        log, _ = generate_p2p(SynthConfig(n_orders=40, anomaly_rates=FULL_RATES, seed=seed))
        data = serialize_ocel_json(log)
        assert parse_ocel_json(data) == log
        assert serialize_ocel_json(parse_ocel_json(data)) == data

    gen = tmp_path / "gen"
    assert cli_main(["generate", "--n-orders", "30", "--double-invoice-rate", "0.1",
                     "--seed", "5", "--out", str(gen)]) == 0
    manifest = json.loads((gen / "run.json").read_text())
    argv = ["detect", "--log", str(gen / "log.json"), "--object-type", "order",
            "--seed", str(manifest["params"]["seed"]), "--top-k", "5"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main([*argv, "--out", str(out1)]) == 0
    assert cli_main([*argv, "--out", str(out2)]) == 0

    def digest_tree(root):
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    assert digest_tree(out1) == digest_tree(out2)
    print("\nACCEPTANCE 10 PASS parse/serialize identity and byte-identical CLI reruns")
