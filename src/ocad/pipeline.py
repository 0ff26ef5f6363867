"""Composable pipeline steps shared by the CLI, the scripts and the tests."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .detect import (
    DEFAULT_LOF_K,
    DEFAULT_N_TREES,
    DEFAULT_SUBSAMPLE,
    RankVector,
    ScoreVector,
    isolation_forest,
    lof,
    rank,
)
from .errors import AllColumnsDropped, InvalidConfig, VarianceFallbackWarning
from .features import (
    DEFAULT_EPSILON,
    FeatureMatrix,
    extract_features,
    normalize,
    propagate_features,
    variance_filter,
)
from .ocel import OcelLog
from .reduce import DEFAULT_FASTMAP_K, DEFAULT_PIVOT_ITERS, fastmap, pca


@dataclass(frozen=True)
class PipelineParams:
    """Resolved knobs of one detection run; everything the manifest needs."""

    object_type: str
    detector: str = "iforest"  # iforest | lof
    reducer: str = "none"  # none | pca | fastmap
    propagate_from: str | None = None
    agg: str = "mean"
    min_variance: float = 0.0
    epsilon: float = DEFAULT_EPSILON
    reduce_k: int = DEFAULT_FASTMAP_K
    pivot_iters: int = DEFAULT_PIVOT_ITERS
    n_trees: int = DEFAULT_N_TREES
    subsample: int = DEFAULT_SUBSAMPLE
    lof_k: int = DEFAULT_LOF_K
    seed: int = 0
    include_cobirth_codeath: bool = False

    def __post_init__(self):
        for name, least in (("n_trees", 1), ("subsample", 2), ("lof_k", 1), ("reduce_k", 1), ("pivot_iters", 1)):
            if getattr(self, name) < least:
                raise InvalidConfig(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not self.epsilon > 0:
            raise InvalidConfig(f"epsilon must be > 0, got {self.epsilon}")
        if math.isnan(self.min_variance):
            raise InvalidConfig("min_variance must be a number, got nan")


def build_matrix(log: OcelLog, params: PipelineParams) -> tuple[FeatureMatrix, FeatureMatrix]:
    """extract -> optional propagate -> normalize -> variance filter.

    Returns the raw matrix (extracted and propagated, before normalization)
    and the normalized, filtered one. Falls back to the unfiltered normalized
    matrix when the variance filter would drop every column.
    """
    F = extract_features(log, params.object_type, params.include_cobirth_codeath)
    if params.propagate_from:
        neighbor = extract_features(log, params.propagate_from, params.include_cobirth_codeath)
        F = propagate_features(log, F, neighbor, agg=params.agg)
    Fn = normalize(F, epsilon=params.epsilon)
    try:
        return F, variance_filter(Fn, params.min_variance)
    except AllColumnsDropped:
        warnings.warn(f"min_variance {params.min_variance} would drop all {len(Fn.columns)} columns; "
                      "using the unfiltered matrix", VarianceFallbackWarning)
        return F, Fn


def score_matrix(Fn: FeatureMatrix, params: PipelineParams) -> ScoreVector:
    """Optional reduction followed by the chosen detector."""
    data = Fn
    k = min(params.reduce_k, len(Fn.row_ids), len(Fn.columns))
    if params.reducer == "pca":
        data = pca(Fn, k).matrix
    elif params.reducer == "fastmap":
        data = fastmap(Fn, k, pivot_iters=params.pivot_iters, seed=params.seed).matrix
    elif params.reducer != "none":
        raise ValueError(f"unknown reducer {params.reducer!r}")

    if params.detector == "iforest":
        return isolation_forest(data, n_trees=params.n_trees, subsample=params.subsample, seed=params.seed)
    if params.detector == "lof":
        return lof(data, k=params.lof_k)
    raise ValueError(f"unknown detector {params.detector!r}")


def detect_objects(log: OcelLog, params: PipelineParams) -> tuple[FeatureMatrix, ScoreVector, RankVector]:
    _, Fn = build_matrix(log, params)
    scores = score_matrix(Fn, params)
    return Fn, scores, rank(scores)
