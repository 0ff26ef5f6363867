#!/usr/bin/env python3
"""End-to-end anomaly study on a synthetic purchase-to-pay log.

Generates a log with planted anomalies, scores the orders with both
detectors (isolation forest on the normalized feature matrix, LOF on the
FastMap embedding), prints the most anomalous orders side by side with the
ground truth, and prints the feature-score report.
"""

import argparse

from ocad.aggregate import anomalous_feature_report
from ocad.detect import rank, render_score_table
from ocad.pipeline import PipelineParams, build_matrix, score_matrix
from ocad.synthgen import AnomalyKind, SynthConfig, generate_p2p


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-orders", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--top", type=int, default=15, help="rows to print per table")
    args = ap.parse_args()

    cfg = SynthConfig(
        n_orders=args.n_orders,
        anomaly_rates={
            AnomalyKind.MAVERICK_BUYING: 0.05,
            AnomalyKind.POST_MORTEM_PR_CHANGE: 0.03,
            AnomalyKind.DOUBLE_INVOICE: 0.05,
            AnomalyKind.REOPEN_LONG_GAP: 0.02,
        },
        seed=args.seed,
    )
    log, truth = generate_p2p(cfg)
    print(f"log: {len(log.events)} events, {len(log.objects)} objects, "
          f"{sum(1 for k in truth.labels.values() if k)} anomalous orders\n")

    params = PipelineParams(object_type="order", seed=args.seed)  # the default detector: iforest
    F, Fn = build_matrix(log, params)
    sv_if = score_matrix(Fn, params)
    sv_lof = score_matrix(Fn, PipelineParams(object_type="order", reducer="fastmap", seed=args.seed))

    table = render_score_table([sv_if, sv_lof]).splitlines()
    print("most anomalous orders (isolation forest | LOF on FastMap):")
    labels = {o: ";".join(sorted(k.value for k in ks)) for o, ks in truth.labels.items()}
    print(table[0] + "  Planted")
    for line in table[1 : args.top + 1]:
        oid = line.split()[0]
        print(f"{line}  {labels.get(oid, '') or '-'}")

    ranks = rank(sv_if)
    labeled = {o for o, ks in truth.labels.items() if ks}
    cutoff = max(1, int(0.15 * len(ranks.object_ids)))
    position = dict(zip(ranks.object_ids, ranks.ranks))
    hit = sum(1 for o in labeled if position[o] < cutoff)
    print(f"\nplanted orders in bottom 15% of iforest ranks: {hit}/{len(labeled)}")

    report = anomalous_feature_report(F, sv_if, top_n=args.top)
    print("\nfeature values most correlated with anomalies:")
    print(report.to_text())


if __name__ == "__main__":
    main()
