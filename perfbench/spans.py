"""Read the span records the child processes write and derive layer metrics.

A span's self time is its duration minus the durations of its direct
children; inclusive time of a name counts only its outermost spans, so a
name nested in itself is not counted twice.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from workloads import ALL_STAGES as STAGES

# (metric, unit); every traced run reports all of them, 0 where a layer is idle.
PER_LAYER = [
    ("perron.evals", "count"),
    ("perron.self_s", "s"),
    ("perron.power.evals", "count"),
    ("perron.power.self_s", "s"),
    ("perron.level_points", "count"),
    ("perron.evals_per_level_point", "evals/point"),
    ("perron.level_point_s", "s"),
    ("perron.minimize_s", "s"),
    ("perron.check_assumptions_s", "s"),
    ("excursions.engine_init_s", "s"),
    ("excursions.fixed_point_rounds", "count"),
    ("excursions.green.calls", "count"),
    ("excursions.green.self_s", "s"),
    ("excursions.taboo_build.count", "count"),
    ("excursions.taboo_build_s", "s"),
    ("excursions.taboo_block_max", "elements"),
    ("excursions.taboo_value.calls", "count"),
    ("excursions.taboo_value_s", "s"),
    ("lattice.box_lu.count", "count"),
    ("lattice.box_lu_s", "s"),
    ("lattice.box_lu.states", "states"),
    ("lattice.box_lu.states_max", "states"),
    ("lattice.absorption.count", "count"),
    ("lattice.absorption_s", "s"),
    ("induced.induce.calls", "count"),
    ("induced.induce_s", "s"),
    ("induced.fibers_max", "fibers"),
    ("induced.verify_s", "s"),
    ("classify.ancona.calls", "count"),
    ("classify.ancona_s", "s"),
    ("classify.martin_s", "s"),
    ("classify.separation_s", "s"),
    ("floyd.distance.calls", "count"),
    ("floyd.distance_s", "s"),
    ("floyd.transition_s", "s"),
    ("balls.ball.calls", "count"),
    ("balls.ball_s", "s"),
    ("groups.mul.calls", "count"),
    ("config.load_s", "s"),
    ("setup.import_s", "s"),
    ("reports.files", "count"),
    ("reports.bytes", "bytes"),
    ("reports.write_s", "s"),
    *[(f"cli.stage.{s}{suffix}", "s") for s in STAGES for suffix in ("_s", ".self_s")],
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


# metric: (span name, NameStats field)
_FROM_SPANS = {
    "perron.power.evals": ("perron.power", "count"),
    "perron.power.self_s": ("perron.power", "self_s"),
    "perron.level_points": ("perron.level_point", "count"),
    "perron.level_point_s": ("perron.level_point", "inclusive_s"),
    "perron.minimize_s": ("perron.minimize", "inclusive_s"),
    "perron.check_assumptions_s": ("perron.check_assumptions", "inclusive_s"),
    "excursions.engine_init_s": ("excursions.engine_init", "inclusive_s"),
    "excursions.green.calls": ("excursions.green", "count"),
    "excursions.green.self_s": ("excursions.green", "self_s"),
    "excursions.taboo_build.count": ("excursions.taboo_build", "count"),
    "excursions.taboo_build_s": ("excursions.taboo_build", "inclusive_s"),
    "excursions.taboo_value.calls": ("excursions.taboo_value", "count"),
    "excursions.taboo_value_s": ("excursions.taboo_value", "inclusive_s"),
    "lattice.box_lu.count": ("lattice.box_lu", "count"),
    "lattice.box_lu_s": ("lattice.box_lu", "inclusive_s"),
    "lattice.absorption.count": ("lattice.absorption", "count"),
    "lattice.absorption_s": ("lattice.absorption", "inclusive_s"),
    "induced.induce.calls": ("induced.induce", "count"),
    "induced.induce_s": ("induced.induce", "inclusive_s"),
    "induced.verify_s": ("induced.verify", "inclusive_s"),
    "classify.ancona.calls": ("classify.ancona", "count"),
    "classify.ancona_s": ("classify.ancona", "inclusive_s"),
    "classify.martin_s": ("classify.martin", "inclusive_s"),
    "classify.separation_s": ("classify.separation", "inclusive_s"),
    "floyd.distance.calls": ("floyd.distance", "count"),
    "floyd.distance_s": ("floyd.distance", "inclusive_s"),
    "floyd.transition_s": ("floyd.transition", "inclusive_s"),
    "balls.ball.calls": ("balls.ball", "count"),
    "balls.ball_s": ("balls.ball", "inclusive_s"),
    "config.load_s": ("config.load", "inclusive_s"),
    "reports.write_s": ("reports.write", "inclusive_s"),
    **{f"cli.stage.{s}_s": (f"cli.stage.{s}", "inclusive_s") for s in STAGES},
    **{f"cli.stage.{s}.self_s": (f"cli.stage.{s}", "self_s") for s in STAGES},
}

# Values the child reads off calls; the rest of these add up over processes.
_MAXIMA = ("excursions.taboo_block_max", "lattice.box_lu.states_max", "induced.fibers_max")
_VALUES = ("excursions.fixed_point_rounds", "lattice.box_lu.states", "reports.files",
           "reports.bytes", *_MAXIMA)


@dataclass
class Record:
    """One child process: its spans plus the stamps and values it saved."""

    names: list[str]
    code: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    meta: dict

    @staticmethod
    def load(path: str) -> "Record":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            return Record(meta["names"], data["code"], data["parent"],
                          data["start"], data["end"], meta)


@dataclass
class NameStats:
    count: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def span_stats(rec: Record, within: str | None = None) -> dict[str, NameStats]:
    """Per-name count, inclusive and self time; optionally only spans nested in `within`."""
    n = len(rec.code)
    out: dict[str, NameStats] = {}
    if n == 0:
        return out
    dur = rec.end - rec.start
    has_parent = rec.parent >= 0
    child_sum = np.bincount(rec.parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_sum
    # Walk up the tree once per depth level: find spans with a same-name
    # ancestor, and spans with a `within` ancestor.
    within_code = rec.names.index(within) if within in rec.names else -2
    nested_same = np.zeros(n, dtype=bool)
    inside = np.zeros(n, dtype=bool)
    anc = rec.parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        anc_code = np.where(live, rec.code[np.where(live, anc, 0)], -1)
        nested_same |= live & (anc_code == rec.code)
        inside |= live & (anc_code == within_code)
        anc = np.where(live, rec.parent[np.where(live, anc, 0)], -1)
    keep = inside if within is not None else np.ones(n, dtype=bool)
    for code, name in enumerate(rec.names):
        mask = keep & (rec.code == code)
        if not mask.any():
            continue
        out[name] = NameStats(int(mask.sum()),
                              float(dur[mask & ~nested_same].sum()),
                              float(self_time[mask].sum()))
    return out


def layer_metrics(records: list[Record]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all its processes)."""
    stats: dict[str, NameStats] = {}
    in_level: dict[str, NameStats] = {}
    counts: dict[str, int] = {}
    values: dict[str, float] = {}
    spans = 0
    import_s = 0.0
    for rec in records:
        spans += len(rec.code)
        import_s += rec.meta["import_s"]
        for table, found in ((stats, span_stats(rec)),
                             (in_level, span_stats(rec, within="perron.level_point"))):
            for name, s in found.items():
                acc = table.setdefault(name, NameStats())
                acc.count += s.count
                acc.inclusive_s += s.inclusive_s
                acc.self_s += s.self_s
        for name, c in rec.meta["counts"].items():
            counts[name] = counts.get(name, 0) + c
        for name, v in rec.meta["values"].items():
            values[name] = max(values.get(name, v), v) if name in _MAXIMA \
                else values.get(name, 0) + v

    def get(name: str) -> NameStats:
        return stats.get(name, NameStats())

    dense, power = get("perron.dense"), get("perron.power")
    level = get("perron.level_point")
    level_evals = sum(in_level.get(n, NameStats()).count
                      for n in ("perron.dense", "perron.power"))
    m = {
        "perron.evals": dense.count + power.count,
        "perron.self_s": dense.self_s + power.self_s,
        "perron.evals_per_level_point": level_evals / level.count if level.count else 0.0,
        "groups.mul.calls": counts.get("groups.mul", 0),
        "setup.import_s": import_s,
        "trace.spans": spans,
    }
    for metric, (span, field) in _FROM_SPANS.items():
        m[metric] = getattr(get(span), field)
    for name in _VALUES:
        m[name] = values.get(name, 0)
    return m
