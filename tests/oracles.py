"""Independent brute-force oracles used to verify the package.

Everything here is written as straight-line loops over the raw log fields or
plain arrays, deliberately sharing no code with the implementations under
test, except :func:`strict_parse`, which reads the text with ``json.loads``,
shares ocel's checkers and gives its records to ``OcelLog.build``. The log's attribute
slot columns are read as per-entry dicts through ``conftest.attribute_dicts``.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import numpy as np

from conftest import attribute_dicts
from ocad.errors import MalformedDocument
from ocad.ocel import OcelLog, _list, _parse_iso, _string


class NaiveDerivations:
    """Set-builder re-evaluation of the per-object log derivations."""

    def __init__(self, log):
        self.otyp = {o: log.object_types[t] for o, t in zip(log.objects, log.obj_type.tolist())}
        self.ovmap = dict(zip(log.objects, attribute_dicts(log, "obj")))
        self.act, self.time, self.omap = {}, {}, {}
        for i, e in enumerate(log.events):
            self.act[e] = log.activities[int(log.ev_act[i])]
            self.time[e] = float(log.ev_time[i])
            self.omap[e] = {log.objects[int(c)] for c in log.ev_obj[log.ev_ptr[i]:log.ev_ptr[i + 1]]}
        self.order = sorted(self.act, key=lambda e: (self.time[e], e))
        self.pos = {e: i for i, e in enumerate(self.order)}
        self.lifecycles = {
            o: [e for e in self.order if o in self.omap[e]] for o in self.otyp
        }

    def lifecycle(self, o):
        return self.lifecycles[o]

    def efg(self, o):
        lc = self.lifecycles[o]
        return {
            (e1, e2)
            for e1 in lc
            for e2 in lc
            if self.pos[e1] < self.pos[e2]
        }

    def dfg(self, o):
        lc = set(self.lifecycles[o])
        out = set()
        for (e1, e2) in self.efg(o):
            between = any(
                self.pos[e1] < self.pos[e3] < self.pos[e2] for e3 in lc
            )
            if not between:
                out.add((e1, e2))
        return out

    def interaction_sets(self, o, ot):
        interact = set()
        for p in self.otyp:
            if p == o or self.otyp[p] != ot:
                continue
            if any(p in self.omap[e] for e in self.lifecycles[o]):
                interact.add(p)
        lc = self.lifecycles[o]
        creation, continuation, cobirth, codeath = set(), set(), set(), set()
        if lc:
            t_start = self.time[lc[0]]
            t_end = self.time[lc[-1]]
            for p in interact:
                plc = self.lifecycles[p]
                if not plc:
                    continue
                if t_start < self.time[plc[0]]:
                    creation.add(p)
                if t_end == self.time[plc[0]]:
                    continuation.add(p)
                if t_start == self.time[plc[0]]:
                    cobirth.add(p)
                if t_end == self.time[plc[-1]]:
                    codeath.add(p)
        return interact, creation, continuation, cobirth, codeath

    def common_attributes(self, ot):
        objs = [o for o in self.otyp if self.otyp[o] == ot]
        if not objs:
            return set()
        names = set(self.ovmap[objs[0]])
        for o in objs[1:]:
            names = names & set(self.ovmap[o])
        return names

    def feature_map(self, ot, include_cobirth_codeath=False):
        """Nonzero feature entries per object of type ``ot``."""
        objs = sorted(o for o in self.otyp if self.otyp[o] == ot)
        types = sorted(set(self.otyp.values()))
        rows = {}
        common = self.common_attributes(ot)
        for o in objs:
            row = {}
            for att in common:
                v = self.ovmap[o][att]
                if isinstance(v, str):
                    row[f"strvalue{att}_{v}"] = 1.0
                elif v != 0.0:
                    row[f"numvalue{att}"] = float(v)
            lc = self.lifecycles[o]
            for a in set(self.act[e] for e in lc):
                row[f"lifecyclecontains{a}"] = float(
                    sum(1 for e in lc if self.act[e] == a)
                )
            if lc:
                row[f"lifecyclestartswith{self.act[lc[0]]}"] = 1.0
                if self.time[lc[0]] != 0.0:
                    row["lifecyclestarttime"] = self.time[lc[0]]
                if self.time[lc[-1]] != 0.0:
                    row["lifecycleendtime"] = self.time[lc[-1]]
                dur = self.time[lc[-1]] - self.time[lc[0]]
                if dur != 0.0:
                    row["lifecycleduration"] = dur
            for (e1, e2) in self.dfg(o):
                key = f"dfg_{self.act[e1]}_{self.act[e2]}"
                row[key] = row.get(key, 0.0) + 1.0
            for ot2 in types:
                interact, creation, _, cobirth, codeath = self.interaction_sets(o, ot2)
                if interact:
                    row[f"interactions{ot2}"] = float(len(interact))
                if creation:
                    row[f"creation{ot2}"] = float(len(creation))
                if include_cobirth_codeath:
                    if cobirth:
                        row[f"cobirth{ot2}"] = float(len(cobirth))
                    if codeath:
                        row[f"codeath{ot2}"] = float(len(codeath))
            rows[o] = row
        return objs, rows


def assert_matrix_matches_naive(F, objs, rows, time_tol=1e-9):
    """Cell-by-cell comparison against the naive feature map: exact for
    counts and one-hots, relative tolerance for the time features."""
    __tracebackhide__ = True
    assert tuple(F.row_ids) == tuple(objs)
    expected_columns = set()
    for row in rows.values():
        expected_columns |= set(row)
    assert set(F.columns) == expected_columns
    time_cols = {"lifecyclestarttime", "lifecycleendtime", "lifecycleduration"}
    for i, o in enumerate(F.row_ids):
        for j, c in enumerate(F.columns):
            expected = rows[o].get(c, 0.0)
            got = float(F.values[i, j])
            if c in time_cols:
                assert got == expected or abs(got - expected) <= time_tol * max(1.0, abs(expected)), (o, c)
            else:
                assert got == expected, (o, c, got, expected)


def brute_propagate(naive, base, neighbor, agg):
    """Per-object propagation: for each base row, ``agg`` over the neighbor
    rows of its interaction partners of the neighbor type, in sorted id
    order, zeros without partners. Returns ``(columns, values)``."""
    fn = {"mean": np.mean, "median": np.median, "min": np.min, "max": np.max, "sum": np.sum}[agg]
    row_of = {o: i for i, o in enumerate(neighbor.row_ids)}
    prop = np.zeros((len(base.row_ids), len(neighbor.columns)))
    for i, o in enumerate(base.row_ids):
        partners = sorted(naive.interaction_sets(o, neighbor.object_type)[0])
        if partners:
            prop[i, :] = fn(neighbor.values[[row_of[p] for p in partners], :], axis=0)
    columns = tuple(base.columns) + tuple(f"prop{c}" for c in neighbor.columns)
    return columns, np.hstack([base.values, prop])


def brute_lof(X, k):
    """Straight-line LOF on a full distance matrix, emitted negated."""
    X = [list(map(float, row)) for row in X]
    n = len(X)
    D = [[math.dist(X[i], X[j]) for j in range(n)] for i in range(n)]
    kdist = [sorted(D[i][j] for j in range(n) if j != i)[k - 1] for i in range(n)]
    nbrs = [
        [j for j in range(n) if j != i and D[i][j] <= kdist[i]] for i in range(n)
    ]
    lrd = []
    for i in range(n):
        reach = [max(kdist[j], D[i][j]) for j in nbrs[i]]
        lrd.append(1.0 / max(sum(reach) / len(reach), 1e-300))
    out = []
    for i in range(n):
        ratios = [lrd[j] / lrd[i] for j in nbrs[i]]
        out.append(-(sum(ratios) / len(ratios)))
    return out


def direct_distances(A, B):
    """Every Euclidean distance between a row of ``A`` and a row of ``B`` in
    the direct form that ``detect.lof`` computes: the square root of the
    columns' squared differences, summed left to right."""
    D = np.zeros((len(A), len(B)))
    for a, b in zip(A.T, B.T):
        diff = a[:, None] - b
        D += diff * diff
    return np.sqrt(D)


def dense_lof(X, k):
    """LOF on the whole n x n direct-form distance matrix with per-row loops,
    emitted negated: the arithmetic ``detect.lof`` keeps for rows without
    copies, in the same order."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    D = np.vstack([direct_distances(X[s:s + 500], X) for s in range(0, n, 500)])
    np.fill_diagonal(D, np.inf)
    kdist = np.partition(D, k - 1, axis=1)[:, k - 1]
    nbrs = [np.flatnonzero(D[i] <= kdist[i]) for i in range(n)]
    lrd = np.array([1.0 / max(np.maximum(kdist[nbrs[i]], D[i, nbrs[i]]).mean(), 1e-300) for i in range(n)])
    return -np.array([(lrd[nbrs[i]] / lrd[i]).mean() for i in range(n)])


def whole_row_neighborhoods(U, sq, counts, k):
    """The tie-inclusive k-neighborhoods that ``detect._neighborhoods``
    returns, from every direct-form distance of a row (``sq`` is unused):
    each row's k-th smallest distance by a partition of the whole row, and
    its entries by a comparison with every distance."""
    nu = len(U)
    kth = min(k, nu) - 1
    has_copies = counts > 1
    row_blocks, col_blocks, dist_blocks = [], [], []
    for s in range(0, nu, 500):
        e = min(s + 500, nu)
        diag = (np.arange(e - s), np.arange(s, e))
        D = direct_distances(U[s:e], U)
        D[diag] = np.where(has_copies[s:e], 0.0, np.inf)
        bound = np.partition(D, kth, axis=1)[:, kth]
        near = D <= bound[:, None]
        near[diag] = has_copies[s:e]
        r, c = np.nonzero(near)
        row_blocks.append(r + s)
        col_blocks.append(c)
        dist_blocks.append(D[r, c])
    rows, cols, dists = map(np.concatenate, (row_blocks, col_blocks, dist_blocks))
    weights = np.where(cols == rows, counts[rows] - 1, counts[cols])
    kdist = np.empty(nu)
    ends = np.cumsum(np.bincount(rows, minlength=nu))
    for i, (lo, hi) in enumerate(zip(ends - np.bincount(rows, minlength=nu), ends)):
        by_dist = np.argsort(dists[lo:hi], kind="stable")
        within = np.cumsum(weights[lo:hi][by_dist])
        kdist[i] = dists[lo:hi][by_dist][np.searchsorted(within, k)]
    keep = dists <= kdist[rows]
    return np.bincount(rows[keep], minlength=nu), cols[keep], dists[keep], weights[keep], kdist


def brute_fea_scores(norm_values, scores):
    """Double-loop feature-score summation."""
    n = len(norm_values)
    d = len(norm_values[0]) if n else 0
    out = []
    for j in range(d):
        total = 0.0
        for i in range(n):
            total += float(scores[i]) * float(norm_values[i][j])
        out.append(total / n)
    return out


def jacobi_eigh(A, max_sweeps=100, tol=1e-14):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors-as-columns), unsorted.
    """
    A = np.array(A, dtype=np.float64, copy=True)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) < tol:
                    continue
                theta = 0.5 * math.atan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = math.cos(theta), math.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
        if off < tol:
            break
    return np.diag(A).copy(), V


def brute_quantile(xs, q):
    """Linear-interpolation quantile of a sequence."""
    s = sorted(float(x) for x in xs)
    h = (len(s) - 1) * q
    lo = math.floor(h)
    frac = h - lo
    hi = min(lo + 1, len(s) - 1)
    return s[lo] * (1.0 - frac) + s[hi] * frac


def datetime_iso(t):
    """ISO-8601 UTC text of ``t`` seconds to the millisecond, through
    ``datetime``; ``round`` rounds half to even."""
    ms_total = round(t * 1000)
    secs, ms = divmod(ms_total, 1000)
    return datetime.fromtimestamp(secs, tz=timezone.utc).isoformat()[:19] + f".{ms:03d}Z"


def json_dumps_serialize(log):
    """The OCEL 2.0 document of ``log`` as a dict tree, written by
    ``json.dumps(indent=2, ensure_ascii=False)``."""

    def value_type_name(v):
        return "float" if isinstance(v, float) else "string"

    objects = list(zip(log.objects, (log.object_types[t] for t in log.obj_type.tolist()), attribute_dicts(log, "obj")))
    events = []
    for i, (e, attrs) in enumerate(zip(log.events, attribute_dicts(log, "ev"))):
        related = sorted(log.objects[int(c)] for c in log.ev_obj[log.ev_ptr[i]:log.ev_ptr[i + 1]])
        events.append((e, log.activities[int(log.ev_act[i])], float(log.ev_time[i]), attrs, related))
    otype_attrs = {ot: {} for ot in log.object_types}
    for _, ot, attrs in objects:
        for name, value in attrs.items():
            otype_attrs[ot].setdefault(name, value_type_name(value))
    etype_attrs = {a: {} for a in log.activities}
    for _, a, _, attrs, _ in events:
        for name, value in attrs.items():
            etype_attrs[a].setdefault(name, value_type_name(value))

    doc = {
        "objectTypes": [
            {"name": ot, "attributes": [{"name": n, "type": t} for n, t in sorted(attrs.items())]}
            for ot, attrs in sorted(otype_attrs.items())
        ],
        "eventTypes": [
            {"name": a, "attributes": [{"name": n, "type": t} for n, t in sorted(attrs.items())]}
            for a, attrs in sorted(etype_attrs.items())
        ],
        "objects": [
            {
                "id": o,
                "type": ot,
                "attributes": [
                    {"name": n, "time": "1970-01-01T00:00:00.000Z", "value": v}
                    for n, v in sorted(attrs.items())
                ],
            }
            for o, ot, attrs in objects
        ],
        "events": [
            {
                "id": e,
                "type": a,
                "time": datetime_iso(t),
                "attributes": [
                    {"name": n, "value": v} for n, v in sorted(attrs.items())
                ],
                "relationships": [
                    {"objectId": o, "qualifier": ""} for o in related
                ],
            }
            for e, a, t, attrs, related in events
        ],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def strict_parse(text):
    """The log of the OCEL 2.0 JSON text ``text``, or the
    :class:`MalformedDocument` that names the first fault: the reference
    for ``ocel.parse_ocel_json``. It reads the whole text as one
    ``json.loads`` tree, then the tree into records, one check at a time,
    and hands them to ``OcelLog.build``; it shares ocel's checkers
    (``_string``, ``_list``, ``_parse_iso``), which name each fault."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be a JSON object")
    for key in ("objects", "events"):
        if not isinstance(doc.get(key), list):
            raise MalformedDocument(f"missing required top-level list {key!r}")
    objects, events = doc["objects"], doc["events"]
    object_records = []
    for entry in objects:
        try:
            oid = _string(entry["id"], "object id")
            ot = _string(entry["type"], "object type")
        except (TypeError, KeyError) as exc:
            raise MalformedDocument(f"object entry missing id/type: {entry!r}") from exc
        latest: dict[str, tuple[float, AttributeValue]] = {}
        for att in _list(entry, "attributes"):
            try:
                name = _string(att["name"], "attribute name")
                value = att["value"]
            except (TypeError, KeyError) as exc:
                raise MalformedDocument(f"bad attribute on object {oid!r}") from exc
            at = _parse_iso(att["time"]) if "time" in att else 0.0
            if name not in latest or at >= latest[name][0]:  # the later entry wins a tie
                latest[name] = (at, value)
        object_records.append((oid, ot, {k: v for k, (_, v) in latest.items()}))

    event_records = []
    for entry in events:
        try:
            eid = _string(entry["id"], "event id")
            activity = _string(entry["type"], "event type")
            ts = _parse_iso(entry["time"])
        except (TypeError, KeyError) as exc:
            raise MalformedDocument(f"event entry missing id/type/time: {entry!r}") from exc
        attrs = {}
        for att in _list(entry, "attributes"):
            try:
                attrs[_string(att["name"], "attribute name")] = att["value"]
            except (TypeError, KeyError) as exc:
                raise MalformedDocument(f"bad attribute on event {eid!r}") from exc
        oids = []
        for rel in _list(entry, "relationships"):
            try:
                oids.append(_string(rel["objectId"], "relationship objectId"))
            except (TypeError, KeyError) as exc:
                raise MalformedDocument(f"bad relationship on event {eid!r}") from exc
        event_records.append((eid, activity, ts, oids, attrs))

    return OcelLog.build(event_records, object_records)
