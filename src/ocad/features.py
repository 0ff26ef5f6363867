"""Feature maps over the objects of one type.

Each object of the chosen type becomes one row of a dense numeric matrix.
A column is identified by a key ``(family, *args)``; only this module turns
keys into header strings (:func:`column_name`) and report labels
(:func:`column_label`). Column families, as key and header:

* ``("numvalue", att)``  ``numvalue<att>``: numeric common attribute, as-is
* ``("strvalue", att, v)``  ``strvalue<att>_<v>``: one-hot per value of a string common attribute
* ``("lifecyclecontains", a)`` / ``("lifecyclestartswith", a)``: activity count / start one-hot
* ``("dfg", a1, a2)``  ``dfg_<a1>_<a2>``: directly-follows edge counts between activities
* ``("interactions", ot)`` / ``("creation", ot)``, and behind ``cobirth_codeath``
  ``("cobirth", ot)`` / ``("codeath", ot)``: counts of related objects per type
* ``("prop", key)``  ``prop<header>``: aggregated neighbor feature added by propagation
* ``("=", key, v)``  ``(<header>=<v:g>)``: per-value indicator made by explosion
* ``("dim", i)``  ``dim_<i>``: an embedding axis (see :mod:`ocad.reduce`)
* ``(name,)``  a plain name: ``lifecyclestarttime``, ``lifecycleendtime``, ``lifecycleduration``

Objects with an empty lifecycle get zeros for all lifecycle-derived columns.
The count families (string values, activities, start activities, edges and
related types) have a column only for each value, activity, edge or type
present in the type's rows, so their width follows the rows, not the log's
vocabulary. Numeric-attribute and lifecycle-time columns that are all zero
are omitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._csv import csv_bytes
from .errors import (
    AllColumnsDropped,
    ColumnCollision,
    InvalidConfig,
    MixedAttributeType,
    NoObjectsOfType,
    RowMismatch,
    TypeMismatch,
)
from .ocel import OcelLog, _gather, _position, _segments_by_length

DEFAULT_EPSILON = 1e-9
# explode_values treats a column with more distinct values as continuous.
MAX_DISTINCT = 20
# The most cells (rows x columns) of one count family. Extraction peaks at
# 24 bytes a cell (tracemalloc, one string value per object, 1k-4k objects),
# 600 MB here, and each of the chain's up to four float64 copies takes 200 MB.
MAX_COUNT_CELLS = 25_000_000

# propagate_features reduces neighbor values by one of these, by name.
AGGREGATIONS = {"mean": np.mean, "median": np.median, "min": np.min, "max": np.max, "sum": np.sum}

ColumnKey = tuple  # (family, *args); see the module docstring


def column_name(key: ColumnKey) -> str:
    """The header string of a column, e.g. ``dfg_Create PO_Pay``."""
    family, *args = key
    if not args:
        return family
    if family == "prop":
        return "prop" + column_name(args[0])
    if family == "=":
        return f"({column_name(args[0])}={args[1]:g})"
    return family + ("_" if family in ("dfg", "dim") else "") + "_".join(args)


def column_label(key: ColumnKey) -> str:
    """The report label of a column, e.g. ``(dfg Create PO -> Pay = 1)``."""
    family, *args = key
    if not args:
        return family
    if family == "prop":
        return "prop " + column_label(args[0])
    if family == "=":
        return f"({column_label(args[0])} = {args[1]:g})"
    if family == "dfg":
        return f"dfg {args[0]} -> {args[1]}"
    return f"{family} {'_'.join(args)}"


@dataclass(frozen=True)
class FeatureMatrix:
    """Numeric feature columns over the objects of one type, one key each."""

    object_type: str
    row_ids: tuple[str, ...]
    keys: tuple[ColumnKey, ...]
    values: np.ndarray  # shape (len(row_ids), len(keys)), float64

    def __post_init__(self):
        assert self.values.dtype == np.float64 and self.values.shape == (len(self.row_ids), len(self.keys))

    @cached_property
    def columns(self) -> tuple[str, ...]:
        """The header string of every column."""
        return tuple(map(column_name, self.keys))

    def select_columns(self, keep: Sequence[int]) -> "FeatureMatrix":
        keep = list(keep)
        return replace(self, keys=tuple(self.keys[i] for i in keep), values=self.values[:, keep])


def _count_columns(rows: np.ndarray, codes: np.ndarray, n: int, family: tuple,
                   name: Callable[[int], tuple]) -> tuple[list[ColumnKey], np.ndarray]:
    """Keys and (n, width) float block counting each (row, code) pair, one
    column per code present in ``codes``, ascending, keyed
    ``(*family, *name(code))``: every column has a nonzero count. The width
    is known before the block is allocated, so a block of more than
    :data:`MAX_COUNT_CELLS` cells raises :class:`InvalidConfig` instead."""
    present, col = np.unique(codes, return_inverse=True)
    width = len(present)
    if n * width > MAX_COUNT_CELLS:
        raise InvalidConfig(f"feature family {family!r} would be {n} rows x {width} columns, "
                            f"over the bound of {MAX_COUNT_CELLS} cells")
    block = np.bincount(rows * width + col, minlength=n * width).reshape(n, width).astype(np.float64)
    return [(*family, *name(c)) for c in present.tolist()], block


def _common_attribute_columns(log: OcelLog, ot: str, codes: np.ndarray) -> list:
    """Numeric and one-hot string columns, as (keys, block) parts, for the
    attributes shared by every object of the type, whose codes are
    ``codes`` (at least one), read from the log's attribute slots. Mixed
    numeric/string use of one attribute is an error rather than a silent
    coercion."""
    parts, n = [], len(codes)
    ptr = log.obj_att_ptr
    slots, _ = _gather(np.arange(ptr[-1]), ptr[codes], ptr[codes + 1])  # row after row, one slot a name
    names = log.obj_att_name[slots]
    for a in np.flatnonzero(np.bincount(names, minlength=len(log.att_names)) == n).tolist():
        att, sel = log.att_names[a], slots[names == a]  # a row's one slot of the name, row after row
        text = log.obj_att_str[sel]
        if (text < 0).any() and (text >= 0).any():
            raise MixedAttributeType(
                f"attribute {att!r} of type {ot!r} is numeric for some objects and string for others"
            )
        if text[0] < 0:
            parts.append(([("numvalue", att)], log.obj_att_num[sel][:, None]))
        else:
            parts.append(_count_columns(np.arange(n), text, n, ("strvalue", att), lambda j: (log.att_strings[j],)))
    return parts


def extract_features(log: OcelLog, ot: str, cobirth_codeath: bool = False) -> FeatureMatrix:
    """Build the feature matrix for all objects of type ``ot``.

    Every family is computed for all rows at once from the log's arrays. The
    count families (string values, activities, start activities, edges and
    related types) get a column only for a code present in the type's rows;
    all-zero numeric-attribute and lifecycle-time columns are dropped at the
    end. ``cobirth_codeath`` adds per-type co-birth/co-death count columns
    (objects starting or ending their lifecycle simultaneously); they are not
    part of the default feature set. Raises :class:`ColumnCollision` when two
    kept columns would write the same header.
    """
    codes = np.flatnonzero(log.obj_type == _position(log.object_types, ot))
    if not len(codes):
        raise NoObjectsOfType(f"no objects of type {ot!r} in the log")
    n, objs = len(codes), tuple(map(log.objects.__getitem__, codes.tolist()))
    acts, types, n_act = log.activities, log.object_types, len(log.activities)

    parts = _common_attribute_columns(log, ot, codes)

    events, row = log.lifecycles(codes)
    ev_act = log.ev_act[events].astype(np.int64)  # edge codes below reach n_act**2
    parts.append(_count_columns(row, ev_act, n, ("lifecyclecontains",), lambda a: (acts[a],)))

    lo = log.lc_ptr[codes]
    has_events = np.flatnonzero(log.lc_ptr[codes + 1] > lo)
    start_act = log.ev_act[log.lc_ev[lo[has_events]]]
    parts.append(_count_columns(has_events, start_act, n, ("lifecyclestartswith",), lambda a: (acts[a],)))

    starts, ends = log.t_start[codes], log.t_end[codes]
    parts.append(([("lifecyclestarttime",), ("lifecycleendtime",), ("lifecycleduration",)],
                  np.column_stack([starts, ends, ends - starts])))

    # Directly-follows edges: consecutive lifecycle events of the same row.
    same = row[1:] == row[:-1]
    parts.append(_count_columns(row[:-1][same], ev_act[:-1][same] * n_act + ev_act[1:][same], n,
                                ("dfg",), lambda e: (acts[e // n_act], acts[e % n_act])))

    partners, prow = log.related(codes)
    ptype = log.obj_type[partners]
    families = [("interactions", "interact"), ("creation", "creation")]
    if cobirth_codeath:
        families += [("cobirth", "cobirth"), ("codeath", "codeath")]
    for prefix, relation in families:
        mask = log.relation(relation, codes, partners, prow)
        parts.append(_count_columns(prow[mask], ptype[mask], n, (prefix,), lambda t: (types[t],)))

    keys = [key for part, _ in parts for key in part]
    values = np.hstack([block for _, block in parts])
    nonzero = np.flatnonzero(np.any(values != 0.0, axis=0))
    F = FeatureMatrix(ot, objs, tuple(keys[i] for i in nonzero.tolist()), values[:, nonzero])
    first: dict[str, ColumnKey] = {}
    for key, name in zip(F.keys, F.columns):
        if first.setdefault(name, key) != key:
            raise ColumnCollision(f"columns {first[name]!r} and {key!r} both have the header {name!r}")
    return F


def propagate_features(
    log: OcelLog, base: FeatureMatrix, neighbor: FeatureMatrix, agg: str = "mean"
) -> FeatureMatrix:
    """Extend ``base`` with aggregated columns of interacting ``neighbor``
    objects. For each neighbor column ``c`` a column ``("prop", c)`` is added
    holding ``agg`` over the values of the interacting neighbor-type objects;
    objects with no neighbors get 0.

    The neighbor rows of every base row are gathered at once, partners in
    ascending id order, and reduced in blocks of equal partner count
    (:func:`~ocad.ocel._segments_by_length`), so every float equals a per-row call's.
    """
    if base.object_type == neighbor.object_type:
        raise TypeMismatch("propagation requires two distinct object types")
    if agg not in AGGREGATIONS:
        raise ValueError(f"agg must be one of {tuple(AGGREGATIONS)}, got {agg!r}")

    partners, seg = log.related(log.codes(base.row_ids), neighbor.object_type)

    neighbor_row = np.full(len(log.objects), -1)
    neighbor_row[log.codes(neighbor.row_ids)] = np.arange(len(neighbor.row_ids))
    rows = neighbor_row[partners]
    missing = np.flatnonzero(rows < 0)
    if len(missing):
        k = missing[0]
        raise RowMismatch(
            f"object {log.objects[partners[k]]!r} interacts with {base.row_ids[seg[k]]!r} "
            "but is missing from the neighbor matrix"
        )

    prop = np.zeros((len(base.row_ids), len(neighbor.keys)))
    with np.errstate(over="ignore"):  # an overflowed sum or mean is inf, which normalize rejects
        for sel, idx in _segments_by_length(np.bincount(seg, minlength=len(base.row_ids))):
            prop[sel, :] = AGGREGATIONS[agg](neighbor.values[rows[idx], :], axis=1)

    return replace(base, keys=base.keys + tuple(("prop", k) for k in neighbor.keys),
                   values=np.hstack([base.values, prop]))


def normalize(F: FeatureMatrix, epsilon: float = DEFAULT_EPSILON) -> FeatureMatrix:
    """Rescale each column to [-1, 1]:  -1 + 2*(v - min) / (max - min + eps).

    The per-column minimum maps to exactly -1; constant columns map uniformly
    to -1. The map is strictly increasing, so value order within a column is
    preserved. A column whose ``2 * (max - min)`` is not a finite float would
    map to inf or NaN, and raises :class:`InvalidConfig`.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    if F.values.shape[0] == 0:
        raise NoObjectsOfType("cannot normalize an empty matrix")
    lo, hi = F.values.min(axis=0), F.values.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        wide = np.flatnonzero(~np.isfinite(2.0 * (hi - lo)))
    if len(wide):
        j = wide[0]
        raise InvalidConfig(f"column {F.columns[j]!r} spans {lo[j]:g} to {hi[j]:g}, too wide to normalize")
    return replace(F, values=-1.0 + 2.0 * (F.values - lo) / (hi - lo + epsilon))


def variance_filter(F: FeatureMatrix, min_variance: float = 0.0) -> FeatureMatrix:
    """Keep columns whose population variance exceeds ``min_variance``, in
    their order. Raises :class:`AllColumnsDropped` when nothing survives of
    one column or more, so callers can fall back to the unfiltered matrix.
    """
    var = F.values.var(axis=0)
    keep = [i for i in range(len(F.columns)) if var[i] > min_variance]
    if not keep and F.columns:
        raise AllColumnsDropped(
            f"no column has variance > {min_variance} (out of {len(F.columns)})"
        )
    return F.select_columns(keep)


def explode_values(F: FeatureMatrix) -> FeatureMatrix:
    """Replace each discrete column ``c`` by per-value indicator columns
    ``("=", c, v)``.

    Columns taking more than :data:`MAX_DISTINCT` distinct values are treated
    as continuous and passed through unchanged.
    """
    keys: list[ColumnKey] = []
    cols: list[np.ndarray] = []
    for i, key in enumerate(F.keys):
        col = F.values[:, i]
        distinct = np.unique(col)
        if len(distinct) > MAX_DISTINCT:
            keys.append(key)
            cols.append(col)
            continue
        for v in distinct.tolist():
            keys.append(("=", key, v))
            cols.append((col == v).astype(np.float64))
    return replace(F, keys=tuple(keys), values=np.column_stack(cols) if cols else np.zeros((len(F.row_ids), 0)))


# ----------------------------------------------------------------------- CSV

def feature_csv_bytes(F: FeatureMatrix) -> bytes:
    """CSV with an ``object_id`` first column; floats keep full round-trip
    precision."""
    rows = ([o, *row] for o, row in zip(F.row_ids, F.values.tolist()))
    return csv_bytes(["object_id", *F.columns], rows)

