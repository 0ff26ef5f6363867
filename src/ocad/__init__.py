"""Anomaly detection toolkit for object-centric event logs (OCEL 2.0)."""

__version__ = "0.1.0"

from .aggregate import FeatureScoreTable, anomalous_feature_report, feature_scores
from .detect import RankVector, ScoreVector, bottom_k, isolation_forest, lof, rank
from .features import (
    FeatureMatrix,
    explode_values,
    extract_features,
    filter_activities,
    normalize,
    propagate_features,
    variance_filter,
)
from .ocel import InteractionSets, OcelLog, parse_ocel_json, serialize_ocel_json
from .oracle import (
    FeatureSummary,
    OracleVerdict,
    abstract_lifecycle,
    llm_oracle,
    statistical_oracle,
    summarize_features,
)
from .reduce import Embedding, fastmap, pca
from .synthgen import AnomalyKind, SynthConfig, SynthGroundTruth, generate_blocked_invoices, generate_p2p

__all__ = [
    "AnomalyKind",
    "Embedding",
    "FeatureMatrix",
    "FeatureScoreTable",
    "FeatureSummary",
    "InteractionSets",
    "OcelLog",
    "OracleVerdict",
    "RankVector",
    "ScoreVector",
    "SynthConfig",
    "SynthGroundTruth",
    "abstract_lifecycle",
    "anomalous_feature_report",
    "bottom_k",
    "explode_values",
    "extract_features",
    "fastmap",
    "feature_scores",
    "filter_activities",
    "generate_blocked_invoices",
    "generate_p2p",
    "isolation_forest",
    "llm_oracle",
    "lof",
    "normalize",
    "parse_ocel_json",
    "pca",
    "propagate_features",
    "rank",
    "serialize_ocel_json",
    "statistical_oracle",
    "summarize_features",
    "variance_filter",
]
