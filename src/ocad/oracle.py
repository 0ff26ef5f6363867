"""Feature-table and lifecycle abstractions plus oracle scoring.

An oracle maps each feature to a value scorer: a total function from reals
to reals where scores <= 0 flag anomalous values and 0 means "inside the
normal band". The built-in statistical oracle derives Tukey-style fences
from the feature summary; the LLM oracle is plain transport to an
OpenAI-compatible chat endpoint and never interprets the reply. Its
instruction preamble is a versioned constant, so a given toolkit version
always issues the same prompt for the same abstraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import EmptyMatrix, LlmHttpError, LlmSchemaError, LlmTimeout
from .ocel import InteractionSets, OcelLog, format_iso

DEFAULT_WHISKER = 1.5
ORACLE_EPSILON = 1e-9
DEFAULT_MAX_EVENTS = 50

PROMPT_VERSION = "1"
FEATURE_TABLE_PREAMBLE = (
    "You are given summary statistics (min, quartiles, max, mean, standard "
    "deviation, distinct count) of numeric features describing business "
    "objects extracted from an object-centric event log. Identify anomalous "
    "patterns suggested by these statistics: features with extreme ranges, "
    "jumps beyond the 75th percentile, activities that repeat unusually "
    "often, and rare activities worth investigating. Answer as a numbered "
    "list of findings with short justifications."
)


@dataclass(frozen=True)
class FeatureStats:
    name: str
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float
    stddev: float
    distinct: int


@dataclass(frozen=True)
class FeatureSummary:
    stats: tuple[FeatureStats, ...]

    def render(self) -> str:
        lines = []
        for s in self.stats:
            lines.append(
                f"{s.name}: min={s.min:g} q1={s.q1:g} median={s.median:g} "
                f"q3={s.q3:g} max={s.max:g} mean={s.mean:g} stddev={s.stddev:g} "
                f"distinct={s.distinct}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OracleVerdict:
    feature_name: str
    value_scorer: Callable[[float], float]
    rationale: str
    fence_lo: float
    fence_hi: float


def summarize_features(F) -> FeatureSummary:
    """Exact order statistics per column (linear-interpolation quantiles)."""
    if F.values.shape[0] == 0:
        raise EmptyMatrix("cannot summarize a matrix with no rows")
    stats = []
    for j, name in enumerate(F.columns):
        col = F.values[:, j]
        q1, med, q3 = np.quantile(col, [0.25, 0.5, 0.75])
        stats.append(
            FeatureStats(
                name=name,
                min=float(col.min()),
                q1=float(q1),
                median=float(med),
                q3=float(q3),
                max=float(col.max()),
                mean=float(col.mean()),
                stddev=float(col.std()),
                distinct=int(len(np.unique(col))),
            )
        )
    return FeatureSummary(stats=tuple(stats))


def _make_scorer(lo: float, hi: float, iqr: float, median: float) -> Callable[[float], float]:
    if iqr == 0.0:
        return lambda v: 0.0 if v == median else -1.0
    return lambda v: 0.0 if lo <= v <= hi else -(lo - v if v < lo else v - hi) / (iqr + ORACLE_EPSILON)


def statistical_oracle(summary: FeatureSummary, whisker: float = DEFAULT_WHISKER) -> tuple[OracleVerdict, ...]:
    """Fence-based verdict per feature.

    Values inside [q1 - whisker*IQR, q3 + whisker*IQR] score 0; outside, the
    score is minus the distance beyond the fence in IQR units. Degenerate
    features (IQR 0) score 0 only at the median and -1 everywhere else.
    """
    verdicts = []
    for s in summary.stats:
        iqr = s.q3 - s.q1
        lo = s.q1 - whisker * iqr
        hi = s.q3 + whisker * iqr
        if iqr == 0.0:
            rationale = (
                f"{s.name}: IQR is 0; any value other than the median {s.median:g} is anomalous"
            )
        else:
            rationale = (
                f"{s.name}: normal band [{lo:g}, {hi:g}] "
                f"(q1={s.q1:g}, q3={s.q3:g}, whisker={whisker:g}); "
                f"outside, score falls by 1 per {iqr:g} of excess"
            )
        verdicts.append(
            OracleVerdict(
                feature_name=s.name,
                value_scorer=_make_scorer(lo, hi, iqr, s.median),
                rationale=rationale,
                fence_lo=lo,
                fence_hi=hi,
            )
        )
    return tuple(verdicts)


def abstract_lifecycle(log: OcelLog, o: str, max_events: int = DEFAULT_MAX_EVENTS) -> str:
    """Deterministic text rendering of one object's lifecycle.

    One line per event (id, ISO timestamp, activity, other related objects
    with their types), head/tail elided beyond ``max_events``, followed by
    duration and per-type interaction summaries.
    """
    codes = log.codes([o])
    c = int(codes[0])
    lc = log.lifecycles(codes)[0].tolist()
    lines = [f"object {o} (type {log.object_types[log.obj_type[c]]})"]
    if not lc:
        lines.append("no events")
    else:
        def event_line(i: int) -> str:
            others = [p for p in log.ev_obj[log.ev_ptr[i]:log.ev_ptr[i + 1]].tolist() if p != c]
            related = ", ".join(f"{log.objects[p]}[{log.object_types[log.obj_type[p]]}]" for p in others) or "-"
            return f"{log.events[i]}  {format_iso(log.ev_time[i])}  {log.activities[log.ev_act[i]]}  related: {related}"

        if len(lc) <= max_events:
            lines += [event_line(i) for i in lc]
        else:
            head = max_events // 2
            tail = max_events - head
            lines += [event_line(i) for i in lc[:head]]
            lines.append(f"... {len(lc) - max_events} events elided ...")
            lines += [event_line(i) for i in lc[-tail:]]

    duration = float(log.ev_time[lc[-1]] - log.ev_time[lc[0]]) if lc else 0.0
    lines.append(f"events: {len(lc)}")
    lines.append(f"duration_seconds: {duration:g}")
    sets = [(ot, log.interaction_sets(o, ot)) for ot in log.object_types]
    for f in fields(InteractionSets):
        lines.append(f"{f.name}: " + " ".join(f"{ot}={len(getattr(s, f.name))}" for ot, s in sets))
    return "\n".join(lines) + "\n"


def render_feature_table(F, max_rows: int) -> str:
    """Raw tabular rendering of the first ``max_rows`` rows of a feature
    matrix; the alternative abstraction for oracles that want values, not
    statistics."""
    lines = ["object_id\t" + "\t".join(F.columns)]
    for i, o in enumerate(F.row_ids[:max_rows]):
        lines.append(o + "\t" + "\t".join(f"{v:g}" for v in F.values[i, :]))
    if len(F.row_ids) > max_rows:
        lines.append(f"... {len(F.row_ids) - max_rows} rows elided ...")
    return "\n".join(lines) + "\n"


def llm_oracle(endpoint: str, api_key: str, prompt: str, timeout: float = 60.0, model: str = "gpt-4-turbo") -> str:
    """Send an abstraction to an OpenAI-compatible chat-completion endpoint.

    Issues exactly one request and returns the raw model text; transport
    failures surface as :class:`LlmTimeout` / :class:`LlmHttpError` /
    :class:`LlmSchemaError` and are never retried silently.
    """
    import requests  # deferred: only this transport needs it, and importing it is slow

    payload = {
        "model": model,
        "messages": [
            {"role": "system", "content": FEATURE_TABLE_PREAMBLE},
            {"role": "user", "content": prompt},
        ],
    }
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        resp = requests.post(endpoint, headers=headers, json=payload, timeout=timeout)
    except requests.Timeout as exc:
        raise LlmTimeout(f"no reply from {endpoint} within {timeout}s") from exc
    if resp.status_code != 200:
        raise LlmHttpError(resp.status_code)
    try:
        data = resp.json()
        text = data["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, requests.exceptions.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise LlmSchemaError(f"reply does not match the chat-completion schema: {exc}") from exc
    if not isinstance(text, str):
        raise LlmSchemaError("message content is not text")
    return text
