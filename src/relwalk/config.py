"""Experiment configuration: one JSON file in, validated dataclass out."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .balls import DEFAULT_STATE_CAP
from .classify import MIN_TERMS, SequenceSpec
from .errors import ConfigError, ParseError
from .groups import FactorSpec, FreeProductGroup
from .lattice import LatticeChain
from .measures import StepMeasure

# The one limit on lattice rank: the direction grids and the separation
# directions of the stages cover Z^1 and Z^2 only.
MAX_LATTICE_RANK = 2

# Positive integer settings a config may override under "tolerances".
DEFAULT_TOLERANCES = {
    "green_table_radius": 5,
    "ancona_samples": 20,
    "lambda_grid_points": 41,
}

_CONFIG_KEYS = frozenset({
    "name", "group", "measure", "chain", "parabolic", "radius", "floyd_ratio",
    "eta_list", "theta_grid", "state_cap", "seed", "sequences", "tolerances",
    "output_dir"})
_GROUP_KEYS = frozenset({"factors"})
_FACTOR_KEYS = frozenset({"rank", "table", "lattice_names", "finite_names"})
_MEASURE_KEYS = frozenset({"kind", "weights", "lazy"})
_CHAIN_KEYS = frozenset({"rank", "fibers", "entries", "labels"})
_SEQUENCE_KEYS = frozenset({"name", "templates", "start", "stop", "mode"})


@dataclass
class ExperimentConfig:
    """Validated experiment description backing every CLI subcommand.

    Exactly one of group+measure (walk experiments) or chain (synthetic
    lattice kernels) is populated; stages that need the missing side are
    skipped with a note instead of failing.
    """

    name: str
    group: FreeProductGroup | None
    measure: StepMeasure | None
    chain: LatticeChain | None
    parabolic: tuple[int, ...]
    floyd_ratio: float
    radius: int
    eta_list: tuple[int, ...]
    theta_grid: int
    state_cap: int
    seed: int
    sequences: tuple[SequenceSpec, ...]
    tolerances: dict
    output_dir: str

    @property
    def is_synthetic(self) -> bool:
        return self.chain is not None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    """A JSON integer: not a bool, a float or a numeric string."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_object(obj, allowed: frozenset, where: str) -> None:
    """Require a JSON object whose keys all lie in allowed."""
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = sorted(set(obj) - allowed)
    _require(not unknown, f"unknown {where} keys {unknown}")


def _parse_factor(obj: dict, i: int) -> FactorSpec:
    _check_object(obj, _FACTOR_KEYS, f"factor {i}")
    rank = obj.get("rank", 0)
    _require(_is_int(rank) and rank >= 0, f"factor {i}: rank must be an integer >= 0")
    table = obj.get("table", [[0]])
    _require(isinstance(table, list)
             and all(isinstance(r, list) and all(map(_is_int, r)) for r in table),
             f"factor {i}: table must be a list of integer rows")
    lattice_names = obj.get("lattice_names", [])
    finite_names = obj.get("finite_names", [])
    return FactorSpec(rank=rank,
                      table=tuple(tuple(row) for row in table),
                      lattice_names=tuple(str(s) for s in lattice_names),
                      finite_names=tuple(str(s) for s in finite_names))


def _parse_measure(obj: dict, group: FreeProductGroup) -> StepMeasure:
    _check_object(obj, _MEASURE_KEYS, "measure")
    kind = obj.get("kind", "uniform")
    if kind == "uniform":
        mu = StepMeasure.uniform(group)
    elif kind == "weights":
        weights = obj.get("weights")
        _require(isinstance(weights, list) and weights, "measure.weights must be a nonempty list")
        pairs = []
        for entry in weights:
            _require(isinstance(entry, list) and len(entry) == 2,
                     "each weight is a [word, value] pair")
            pairs.append((str(entry[0]), entry[1]))
        mu = StepMeasure.from_weights(group, pairs)
    else:
        raise ConfigError(f"unknown measure kind {kind!r}")
    if obj.get("lazy", False):
        mu = mu.lazy()
    return mu


def _parse_chain(obj: dict) -> LatticeChain:
    _check_object(obj, _CHAIN_KEYS, "chain")
    rank = obj.get("rank")
    fibers = obj.get("fibers", 1)
    entries_raw = obj.get("entries")
    _require(_is_int(rank) and 1 <= rank <= MAX_LATTICE_RANK,
             f"chain.rank must be an integer in 1..{MAX_LATTICE_RANK}")
    _require(_is_int(fibers) and fibers >= 1, "chain.fibers must be an integer >= 1")
    _require(isinstance(entries_raw, list) and entries_raw, "chain.entries must be a nonempty list")
    entries = []
    for row in entries_raw:
        _require(isinstance(row, list) and len(row) == 4,
                 "each chain entry is [j1, j2, [dz...], weight]")
        j1, j2, dz, w = row
        _require(_is_int(j1) and _is_int(j2) and isinstance(dz, list) and all(map(_is_int, dz)),
                 "chain entry fibers and displacements must be integers")
        try:
            weight = float(Fraction(str(w)))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad chain weight {w!r}")
        entries.append((j1, j2, tuple(dz), weight))
    # Fiber labels are accepted for the reader of a config; nothing uses them.
    _require(isinstance(obj.get("labels", []), list), "chain.labels must be a list")
    return LatticeChain.build(rank, fibers, entries)


def _parse_sequences(items, group: FreeProductGroup | None) -> tuple[SequenceSpec, ...]:
    out = []
    for i, obj in enumerate(items):
        _check_object(obj, _SEQUENCE_KEYS, f"sequence {i}")
        templates = obj.get("templates")
        _require(isinstance(templates, list) and templates,
                 f"sequence {i}: templates must be a nonempty list")
        start, stop = obj.get("start", 1), obj.get("stop", 12)
        _require(_is_int(start) and _is_int(stop), f"sequence {i}: start and stop must be integers")
        spec = SequenceSpec(
            name=str(obj.get("name", f"seq{i}")),
            templates=tuple(str(t) for t in templates),
            start=start,
            stop=stop,
            mode=str(obj.get("mode", "alternate" if len(templates) > 1 else "single")))
        if group is not None:
            for template in spec.templates:
                spec.terms(group, template)
        _require(stop - start + 1 >= MIN_TERMS,
                 f"sequence {i}: start..stop must span at least {MIN_TERMS} terms")
        out.append(spec)
    return tuple(out)


def load_config(path: str) -> ExperimentConfig:
    """Read, schema-check, and materialize one experiment JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    _check_object(raw, _CONFIG_KEYS, "config")

    name = str(raw.get("name", os.path.splitext(os.path.basename(path))[0]))
    has_group = "group" in raw
    has_chain = "chain" in raw
    _require(has_group != has_chain, "config needs exactly one of 'group' or 'chain'")

    group = measure = chain = None
    try:
        if has_group:
            gobj = raw["group"]
            _check_object(gobj, _GROUP_KEYS, "group")
            _require(isinstance(gobj.get("factors"), list), "group.factors must be a list")
            factors = [_parse_factor(f, i) for i, f in enumerate(gobj["factors"])]
            group = FreeProductGroup(factors)
            measure = _parse_measure(raw.get("measure", {}), group)
        else:
            chain = _parse_chain(raw["chain"])
    except (TypeError, ValueError, KeyError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad group, measure or chain: {exc}")

    parabolic = raw.get("parabolic", [])
    _require(isinstance(parabolic, list) and all(map(_is_int, parabolic)),
             "parabolic must be a list of factor indices")
    if group is not None:
        for i in parabolic:
            _require(0 <= i < len(group.factors), f"parabolic factor {i} does not exist")
            _require(group.factors[i].rank >= 1,
                     f"parabolic factor {i} has no lattice directions")
            _require(group.factors[i].rank <= MAX_LATTICE_RANK,
                     f"parabolic factor {i} has rank {group.factors[i].rank}; "
                     f"the stages support rank <= {MAX_LATTICE_RANK}")
    else:
        _require(not parabolic, "synthetic chain configs take no parabolic list")

    radius = raw.get("radius", 10)
    _require(_is_int(radius) and radius >= 1, "radius must be an integer >= 1")
    floyd_ratio = raw.get("floyd_ratio", 0.5)
    _require(isinstance(floyd_ratio, (int, float)) and 0.0 < floyd_ratio < 1.0,
             "floyd_ratio must lie in (0,1)")
    eta_list = raw.get("eta_list", [0])
    _require(isinstance(eta_list, list) and all(_is_int(h) and h >= 0 for h in eta_list),
             "eta_list must be a list of integers >= 0")
    for h in eta_list:
        _require(3 * h <= radius, f"eta {h} needs radius >= {3 * h}")
    theta_grid = raw.get("theta_grid", 16)
    _require(_is_int(theta_grid) and theta_grid >= 1, "theta_grid must be an integer >= 1")
    state_cap = raw.get("state_cap", DEFAULT_STATE_CAP)
    _require(_is_int(state_cap) and state_cap >= 1, "state_cap must be a positive integer")
    seed = raw.get("seed", 0)
    _require(_is_int(seed), "seed must be an integer")

    try:
        sequences = _parse_sequences(raw.get("sequences", []), group)
    except (ParseError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sequence: {exc}")

    tolerances = dict(DEFAULT_TOLERANCES)
    extra = raw.get("tolerances", {})
    _require(isinstance(extra, dict), "tolerances must be an object")
    for key, value in extra.items():
        _require(key in DEFAULT_TOLERANCES, f"unknown tolerances key {key!r}")
        _require(_is_int(value) and value >= 1,
                 f"tolerances.{key} must be an integer >= 1")
    tolerances.update(extra)

    output_dir = str(raw.get("output_dir", os.path.join("out", name)))
    return ExperimentConfig(
        name=name, group=group, measure=measure, chain=chain,
        parabolic=tuple(parabolic), floyd_ratio=float(floyd_ratio), radius=radius,
        eta_list=tuple(eta_list), theta_grid=theta_grid, state_cap=state_cap,
        seed=seed, sequences=sequences, tolerances=tolerances,
        output_dir=output_dir)
