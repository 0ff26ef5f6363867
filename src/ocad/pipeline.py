"""Composable pipeline steps shared by the CLI, the scripts and the tests."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .detect import (
    DEFAULT_LOF_K,
    DEFAULT_N_TREES,
    DEFAULT_SUBSAMPLE,
    MAX_TREES,
    RankVector,
    ScoreVector,
    isolation_forest,
    lof,
    rank,
)
from .errors import AllColumnsDropped, EmptyMatrix, InvalidConfig, VarianceFallbackWarning
from .features import (
    AGGREGATIONS,
    DEFAULT_EPSILON,
    FeatureMatrix,
    extract_features,
    normalize,
    propagate_features,
    variance_filter,
)
from .ocel import OcelLog
from .reduce import DEFAULT_FASTMAP_K, PIVOT_ITERS, fastmap, pca

DETECTORS = ("iforest", "lof")
REDUCERS = ("none", "pca", "fastmap")


@dataclass(frozen=True)
class PipelineParams:
    """Resolved knobs of one detection run; everything the manifest needs.

    These defaults are the only ones: the CLI passes just the knobs its
    command line sets. ``detector=None`` pairs the detectors with the
    features they work best on: LOF over the FastMap embedding, otherwise
    iForest. ``epsilon`` and ``pivot_iters`` are fixed, and recorded so that
    the manifest names every constant the outputs depend on.
    """

    object_type: str
    detector: str | None = None  # one of DETECTORS
    reducer: str = "none"  # one of REDUCERS
    propagate_from: str | None = None
    agg: str = "mean"
    min_variance: float = 0.0
    epsilon: float = field(default=DEFAULT_EPSILON, init=False)
    reduce_k: int = DEFAULT_FASTMAP_K
    pivot_iters: int = field(default=PIVOT_ITERS, init=False)
    n_trees: int = DEFAULT_N_TREES
    subsample: int = DEFAULT_SUBSAMPLE
    lof_k: int = DEFAULT_LOF_K
    seed: int = 0
    include_cobirth_codeath: bool = False

    def __post_init__(self):
        if self.detector is None:
            object.__setattr__(self, "detector", "lof" if self.reducer == "fastmap" else "iforest")
        for name, allowed in (("detector", DETECTORS), ("reducer", REDUCERS), ("agg", AGGREGATIONS)):
            if getattr(self, name) not in allowed:
                raise InvalidConfig(f"{name} must be one of {', '.join(allowed)}, got {getattr(self, name)!r}")
        for name, least in (("n_trees", 1), ("subsample", 2), ("lof_k", 1), ("reduce_k", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise InvalidConfig(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.n_trees > MAX_TREES:
            raise InvalidConfig(f"n_trees must be <= {MAX_TREES}, got {self.n_trees}")
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
    """Optional reduction followed by the chosen detector; a matrix without
    columns has nothing to score."""
    if not Fn.columns:
        raise EmptyMatrix(f"type {params.object_type!r} has no feature columns to score")
    data = Fn
    k = min(params.reduce_k, len(Fn.row_ids), len(Fn.columns))
    if params.reducer == "pca":
        data = pca(Fn, k).matrix
    elif params.reducer == "fastmap":
        data = fastmap(Fn, k, seed=params.seed).matrix
    if params.detector == "iforest":
        return isolation_forest(data, n_trees=params.n_trees, subsample=params.subsample, seed=params.seed)
    return lof(data, k=params.lof_k)


def detect_objects(log: OcelLog, params: PipelineParams) -> tuple[ScoreVector, RankVector]:
    scores = score_matrix(build_matrix(log, params)[1], params)
    return scores, rank(scores)
