"""Aggregate object-level anomaly scores into per-feature scores.

The feature score of a column is the score-weighted mean of its normalized
values: sum over objects of score(o) * norm_value(o, column), divided by the
number of objects. Strongly negative feature scores mark feature values that
co-occur with anomalous objects, which is what the report surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._csv import csv_bytes, text_table
from .detect import ScoreVector, _order
from .errors import RowMismatch
from .features import FeatureMatrix, column_label, explode_values, normalize


@dataclass(frozen=True)
class FeatureScoreRow:
    feature_name: str
    support_count: int
    fea_score: float


@dataclass(frozen=True)
class FeatureScoreTable:
    """Rows sorted ascending by score (most anomaly-correlated first)."""

    rows: tuple[FeatureScoreRow, ...]

    def to_csv_bytes(self) -> bytes:
        return csv_bytes(
            ["feature", "count", "fea_score"],
            ([r.feature_name, r.support_count, repr(r.fea_score)] for r in self.rows),
        )

    def to_text(self) -> str:
        return text_table(("Feature (with Value)", "Count", "FEA_SCORE"),
                          [(r.feature_name, str(r.support_count), f"{r.fea_score:.4f}") for r in self.rows])


def _score_columns(F: FeatureMatrix, scores: ScoreVector) -> tuple:
    """Feature score and raw support count of every column of ``F`` (two
    arrays), and the column positions ascending by (score, header)."""
    if tuple(F.row_ids) != tuple(scores.object_ids):
        raise RowMismatch("row ids of the matrix and the score vector differ")
    fea = (scores.scores @ normalize(F).values) / len(F.row_ids)
    support = (F.values != 0.0).sum(axis=0)
    return fea, support, _order(F.columns, fea).tolist()


def feature_scores(F: FeatureMatrix, scores: ScoreVector) -> FeatureScoreTable:
    """Score every column of ``F``, normalized, against object scores; rows
    are named by column header.

    Support counts are taken on the values of ``F`` before normalization
    (number of objects where the feature is nonzero).
    """
    fea, support, order = _score_columns(F, scores)
    return FeatureScoreTable(rows=tuple(FeatureScoreRow(F.columns[j], int(support[j]), float(fea[j])) for j in order))


def anomalous_feature_report(F: FeatureMatrix, scores: ScoreVector, top_n: int) -> FeatureScoreTable:
    """Report of the feature values most correlated with anomalies.

    Discrete columns are exploded into per-value indicators, normalized and
    scored; the ``top_n`` most negative rows are kept, labelled by
    :func:`~ocad.features.column_label`. Zero-variance columns are excluded
    after scoring, by position: they would all inherit the negated mean
    object score without discriminating anything.
    """
    exploded = explode_values(F)
    fea, support, order = _score_columns(exploded, scores)
    varies = exploded.values.var(axis=0) > 0.0
    kept = [j for j in order if varies[j]][: max(top_n, 0)]
    rows = (FeatureScoreRow(column_label(exploded.keys[j]), int(support[j]), float(fea[j])) for j in kept)
    return FeatureScoreTable(rows=tuple(rows))
