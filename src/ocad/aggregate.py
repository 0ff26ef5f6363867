"""Aggregate object-level anomaly scores into per-feature scores.

The feature score of a column is the score-weighted mean of its normalized
values: sum over objects of score(o) * norm_value(o, column), divided by the
number of objects. Strongly negative feature scores mark feature values that
co-occur with anomalous objects, which is what the report surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._csv import csv_bytes
from .detect import ScoreVector, _order
from .errors import RowMismatch
from .features import DEFAULT_EPSILON, FeatureMatrix, explode_values, normalize
from .ocel import OcelLog

_EXACT_NAMES = ("lifecyclestarttime", "lifecycleendtime", "lifecycleduration")
_PREFIXES = (
    "numvalue",
    "strvalue",
    "lifecyclecontains",
    "lifecyclestartswith",
    "interactions",
    "creation",
    "cobirth",
    "codeath",
)


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
        header = ("Feature (with Value)", "Count", "FEA_SCORE")
        cells = [(r.feature_name, str(r.support_count), f"{r.fea_score:.4f}") for r in self.rows]
        widths = [max(len(header[c]), *(len(row[c]) for row in cells)) if cells else len(header[c]) for c in range(3)]
        lines = ["  ".join(header[c].ljust(widths[c]) for c in range(3))]
        for name, count, score in cells:
            lines.append(f"{name.ljust(widths[0])}  {count.rjust(widths[1])}  {score.rjust(widths[2])}")
        return "\n".join(lines) + "\n"


def feature_scores(F: FeatureMatrix, scores: ScoreVector, epsilon: float = DEFAULT_EPSILON) -> FeatureScoreTable:
    """Score every column of ``F``, normalized with ``epsilon``, against
    object scores.

    Support counts are taken on the values of ``F`` before normalization
    (number of objects where the feature is nonzero).
    """
    if tuple(F.row_ids) != tuple(scores.object_ids):
        raise RowMismatch("row ids of the matrix and the score vector differ")
    fea = (scores.scores @ normalize(F, epsilon).values) / len(F.row_ids)
    support = (F.values != 0.0).sum(axis=0)
    rows = (FeatureScoreRow(F.columns[j], int(support[j]), float(fea[j])) for j in _order(F.columns, fea).tolist())
    return FeatureScoreTable(rows=tuple(rows))


def render_feature_name(name: str) -> str:
    """Human-readable form of a feature (or exploded feature-value) name,
    e.g. ``(lifecyclecontainsCancel Order=1)`` becomes
    ``(lifecyclecontains Cancel Order = 1)``."""
    if name.startswith("(") and name.endswith(")") and "=" in name:
        inner, value = name[1:-1].rsplit("=", 1)
        return f"({render_feature_name(inner)} = {value})"
    if name.startswith("prop"):
        return "prop " + render_feature_name(name[4:])
    if name in _EXACT_NAMES:
        return name
    if name.startswith("dfg_"):
        rest = name[4:]
        if "_" in rest:
            a1, a2 = rest.split("_", 1)
            return f"dfg {a1} -> {a2}"
        return f"dfg {rest}"
    for prefix in _PREFIXES:
        if name.startswith(prefix) and len(name) > len(prefix):
            return f"{prefix} {name[len(prefix):]}"
    return name


def anomalous_feature_report(
    log: OcelLog,
    F: FeatureMatrix,
    scores: ScoreVector,
    top_n: int,
    max_distinct: int = 20,
    epsilon: float = DEFAULT_EPSILON,
) -> FeatureScoreTable:
    """Report of the feature values most correlated with anomalies.

    Discrete columns are exploded into per-value indicators, normalized and
    scored; the ``top_n`` most negative rows are kept with human-readable
    names. Zero-variance columns are excluded: they would all inherit the
    negated mean object score without discriminating anything.
    """
    known = set(log.objects_of_type(F.object_type))
    missing = [o for o in F.row_ids if o not in known]
    if missing:
        raise RowMismatch(f"matrix rows not in the log: {missing[:3]!r}")
    exploded = explode_values(F, max_distinct=max_distinct)
    table = feature_scores(exploded, scores, epsilon)
    variances = {
        name: float(exploded.values[:, j].var()) for j, name in enumerate(exploded.columns)
    }
    kept = [r for r in table.rows if variances[r.feature_name] > 0.0]
    rendered = [
        FeatureScoreRow(render_feature_name(r.feature_name), r.support_count, r.fea_score)
        for r in kept[: max(top_n, 0)]
    ]
    return FeatureScoreTable(rows=tuple(rendered))
