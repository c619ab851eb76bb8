"""Scenario files: flat key-value text with dotted sections.

Grammar (one entry per line):

    key = value            # '#' starts a comment
    key = [v1, v2, v3]     # list value (sweeps)

Durations are integer ticks (1 tick = 1 ms).  KEYS is the one registry of
keys: parsing, sweep overrides and the resolved-config echo are all derived
from it (the README's key table mirrors it).  Churn entries use indexed
keys:

    churn.1 = leave 12 at 30
    churn.2 = join 25 at 60 edges 7,11,13,17
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .protocol import MrfConfig, ProtocolConfig, Variant
from .sim import (ChurnEvent, ClockDriftModel, DelayModel, LinkFaultModel,
                  RunResult, make_link_delay_table, run)
from .topology import (Topology, load_topology, make_complete,
                       make_random_geometric, make_regular_grid)


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class TopologySpec:
    kind: str                       # grid | random_geometric | complete | file
    rows: int = 0
    cols: int = 0
    wraparound: bool = False
    n: int = 0
    radius: float = 0.0
    seed: int = 0
    path: str = ""


class LinkDelaySpec(NamedTuple):
    """Fixed per-directed-link delay offsets drawn from [lo, hi] with the
    given seed; materialized against the topology at run time."""

    lo: int
    hi: int
    seed: int


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario.

    values holds one entry per KEYS entry, in registry order: the key's
    value with defaults filled in, or None where the key does not apply.
    It is what resolved_text echoes and what sweep points are rebuilt
    from; the other fields are built from it.
    """

    values: tuple
    topology: TopologySpec
    protocol: ProtocolConfig
    mrf: MrfConfig | None
    delay: DelayModel
    fault: LinkFaultModel
    drift: ClockDriftModel
    link_delay: LinkDelaySpec | None
    churn: tuple[ChurnEvent, ...]
    horizon: int
    seed: int
    payload_rate: float
    sweep: SweepSpec | None


def build_topology(spec: TopologySpec) -> Topology:
    if spec.kind == "grid":
        return make_regular_grid(spec.rows, spec.cols, spec.wraparound)
    if spec.kind == "random_geometric":
        return make_random_geometric(spec.n, spec.radius, spec.seed)
    if spec.kind == "complete":
        return make_complete(spec.n)
    if spec.kind == "file":
        return load_topology(spec.path)
    raise ScenarioError(f"unknown topology kind {spec.kind!r}")


def delay_model(cfg: ScenarioConfig, topology: Topology) -> DelayModel:
    """The scenario's delay model with its per-link offsets, if any, drawn
    against the built topology: what a run uses and what `check` judges."""
    if cfg.link_delay is None:
        return cfg.delay
    return replace(cfg.delay, overrides=make_link_delay_table(topology, *cfg.link_delay))


def run_config(cfg: ScenarioConfig, scheme: str = "ebs",
               trace: bool = False) -> RunResult:
    """Execute one run of a scenario (EBS or the refractory baseline); other
    seeds are sweep points or apply_override(cfg, "run.seed", seed)."""
    topology = build_topology(cfg.topology)
    return run(topology, cfg.protocol, scheme=scheme,
               mrf_cfg=cfg.mrf if scheme == "mrf" else None,
               delay=delay_model(cfg, topology), fault=cfg.fault,
               drift=cfg.drift, churn=cfg.churn, horizon=cfg.horizon,
               seed=cfg.seed, payload_rate=cfg.payload_rate, trace=trace)


# --- the key registry -------------------------------------------------------

class _Type(NamedTuple):
    name: str                                # as in "expected <name>"
    parse: Callable[[str], object]           # raises ValueError on bad text
    text: Callable[[object], str] = str      # the echo; parse(text(v)) == v


_BOOLS = {"true": True, "false": False, "yes": True, "no": False,
          "on": True, "off": False}


def _bool(text: str) -> bool:
    if text.lower() not in _BOOLS:
        raise ValueError(text)
    return _BOOLS[text.lower()]


def _checked(convert, ok):
    """A parser that also rejects converted values outside a domain."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return parse


def _item(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _list(text: str) -> tuple:
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(text)
    return tuple(_item(s.strip()) for s in text[1:-1].split(",") if s.strip())


def _churn(text: str) -> ChurnEvent:
    parts = text.split()
    try:
        if parts[0] == "leave" and len(parts) == 4 and parts[2] == "at":
            return ChurnEvent(int(parts[3]), "leave", int(parts[1]))
        if parts[0] == "join" and len(parts) == 6 and parts[2] == "at" and parts[4] == "edges":
            edges = tuple(int(e) for e in parts[5].split(","))
            return ChurnEvent(int(parts[3]), "join", int(parts[1]), edges)
    except IndexError:
        pass
    raise ValueError(text)


def _churn_text(ev: ChurnEvent) -> str:
    if ev.action == "leave":
        return f"leave {ev.node_id} at {ev.at_period}"
    return f"join {ev.node_id} at {ev.at_period} edges {','.join(map(str, ev.edges))}"


_INT = _Type("int", int)
_FLOAT = _Type("float", float)
_STR = _Type("str", str)
_BOOL = _Type("bool", _bool, lambda v: str(v).lower())
_TOPOLOGY_KINDS = ("grid", "random_geometric", "complete", "file")


class Key(NamedTuple):
    """One scenario key: how its value is read and echoed, its default and
    the ScenarioConfig field it sets ("section.attribute", or a top-level
    attribute).  A key without a field only switches other keys on.
    applies(given) says whether the key takes part at all; a key that does
    not is neither required, built nor echoed.  An indexed key is written
    as key.1, key.2, ... and collects a tuple."""

    type: _Type
    default: object
    field: str | None
    applies: Callable[[dict], bool] | None = None
    indexed: bool = False


_REQUIRED = object()  # default of a key that must be given where it applies


# cross-key rules: the keys each topology kind reads, and the optional
# sections, present when switched on or when any of their keys is given
def _when(key: str, *values) -> Callable[[dict], bool]:
    return lambda given: given.get(key) in values


def _any_given(*keys: str) -> Callable[[dict], bool]:
    return lambda given: any(key in given for key in keys)


_LINK = _any_given("delay.link_lo", "delay.link_hi", "delay.link_seed")
_SWEEP = _any_given("sweep.parameter", "sweep.values")

KEYS: dict[str, Key] = {
    "topology.kind": Key(_Type(" or ".join(_TOPOLOGY_KINDS),
                               _checked(str, _TOPOLOGY_KINDS.__contains__)),
                         _REQUIRED, "topology.kind"),
    "topology.rows": Key(_INT, _REQUIRED, "topology.rows", _when("topology.kind", "grid")),
    "topology.cols": Key(_INT, _REQUIRED, "topology.cols", _when("topology.kind", "grid")),
    "topology.wraparound": Key(_BOOL, False, "topology.wraparound", _when("topology.kind", "grid")),
    "topology.n": Key(_INT, _REQUIRED, "topology.n",
                      _when("topology.kind", "random_geometric", "complete")),
    "topology.radius": Key(_FLOAT, _REQUIRED, "topology.radius",
                           _when("topology.kind", "random_geometric")),
    "topology.seed": Key(_INT, 0, "topology.seed", _when("topology.kind", "random_geometric")),
    "topology.path": Key(_STR, _REQUIRED, "topology.path", _when("topology.kind", "file")),
    "protocol.period_t": Key(_INT, _REQUIRED, "protocol.period_t"),
    "protocol.epsilon": Key(_FLOAT, _REQUIRED, "protocol.epsilon"),
    "protocol.sigma": Key(_FLOAT, _REQUIRED, "protocol.sigma"),
    "protocol.s_th": Key(_FLOAT, _REQUIRED, "protocol.s_th"),
    "protocol.c0": Key(_INT, 50, "protocol.c0"),
    "protocol.variant": Key(_Type(" or ".join(v.value for v in Variant), Variant,
                                  lambda v: v.value),
                            Variant.NO_REACHBACK, "protocol.variant"),
    "protocol.adaptive_c": Key(_BOOL, False, "protocol.adaptive_c"),
    "protocol.init_listen_periods": Key(_INT, 5, "protocol.init_listen_periods"),
    "mrf.enabled": Key(_BOOL, False, None),
    "mrf.t_ref": Key(_INT, lambda values: values["protocol.period_t"] // 2,
                     "mrf.refractory", _when("mrf.enabled", True)),
    "mrf.sleep": Key(_BOOL, True, "mrf.sleep_during_refractory", _when("mrf.enabled", True)),
    "delay.kind": Key(_STR, "none", "delay.kind"),
    "delay.nu": Key(_INT, 0, "delay.nu"),
    "delay.lo": Key(_INT, 0, "delay.lo"),
    "delay.hi": Key(_INT, 0, "delay.hi"),
    "delay.link_lo": Key(_INT, 0, "link_delay.lo", _LINK),
    "delay.link_hi": Key(_INT, _REQUIRED, "link_delay.hi", _LINK),
    "delay.link_seed": Key(_INT, 0, "link_delay.seed", _LINK),
    "fault.loss_probability": Key(_FLOAT, 0.0, "fault.loss_probability"),
    "fault.collisions": Key(_BOOL, False, "fault.collisions_enabled"),
    "fault.beta": Key(_INT, 4, "fault.airtime_beta"),
    "drift.skew_ppm_min": Key(_FLOAT, 0.0, "drift.skew_ppm_min"),
    "drift.skew_ppm_max": Key(_FLOAT, 0.0, "drift.skew_ppm_max"),
    "run.horizon": Key(_Type("int >= 1", _checked(int, lambda v: v >= 1)), 50, "horizon"),
    "run.seed": Key(_INT, 0, "seed"),
    "run.payload_rate": Key(_Type("probability in [0, 1]",
                                  _checked(float, lambda v: 0.0 <= v <= 1.0)),
                            1.0, "payload_rate"),
    "churn": Key(_Type("churn entry 'leave <id> at <period>' or "
                       "'join <id> at <period> edges <id,id,...>'", _churn, _churn_text),
                 (), "churn", indexed=True),
    "sweep.parameter": Key(_STR, _REQUIRED, "sweep.parameter", _SWEEP),
    "sweep.values": Key(_Type("non-empty [a, b, ...] list", _checked(_list, bool),
                              lambda v: f"[{', '.join(map(str, v))}]"),
                        _REQUIRED, "sweep.values", _SWEEP),
}

# a sweep may vary any single-valued key outside the topology (churn
# entries name its node ids) and the sweep itself
SWEEPABLE = tuple(key for key, spec in KEYS.items()
                  if not spec.indexed and key.split(".")[0] not in ("topology", "sweep"))

# ScenarioConfig fields built from the keys' "section.attribute" fields
_SECTIONS = {"topology": TopologySpec, "protocol": ProtocolConfig,
             "mrf": MrfConfig, "delay": DelayModel, "fault": LinkFaultModel,
             "drift": ClockDriftModel, "link_delay": LinkDelaySpec,
             "sweep": SweepSpec}


def _read(key: str, text: str, where: str):
    kind = KEYS[key].type
    try:
        return kind.parse(text)
    except ValueError:
        raise ScenarioError(f"{where}: {key}: expected {kind.name}, got {text!r}") from None


def _build(given: dict[str, object], where: Callable[[str | None], str]) -> ScenarioConfig:
    """Resolve the given keys against the registry and build the config.

    where(key) names the place a key's value came from (where(None): the
    scenario as a whole) for error messages.
    """
    if _SWEEP(given) and not all(key in given for key in ("sweep.parameter", "sweep.values")):
        raise ScenarioError(f"{where(None)}: sweep needs both sweep.parameter and sweep.values")
    values: dict[str, object] = {}
    for key, spec in KEYS.items():
        if spec.applies is not None and not spec.applies(given):
            continue
        if key in given:
            values[key] = given[key]
        elif spec.default is _REQUIRED:
            raise ScenarioError(f"{where(None)}: missing required key {key!r}")
        else:
            values[key] = spec.default(values) if callable(spec.default) else spec.default
    parameter = values.get("sweep.parameter")
    if parameter is not None and parameter not in SWEEPABLE:
        raise ScenarioError(f"{where('sweep.parameter')}: cannot sweep {parameter!r}")
    if _LINK(values) and not 0 <= values["delay.link_lo"] <= values["delay.link_hi"]:
        raise ScenarioError(f"{where('delay.link_hi')}: link delays need 0 <= link_lo <= link_hi")

    kwargs: dict[str, dict] = {name: {} for name in _SECTIONS}
    top: dict[str, object] = {}
    for key, value in values.items():
        section, _, attr = (KEYS[key].field or "").rpartition(".")
        if attr:
            (kwargs[section] if section else top)[attr] = value
    if kwargs["mrf"]:
        kwargs["mrf"]["period_t"] = values["protocol.period_t"]  # baseline runs on T
    built = {}
    for name, cls in _SECTIONS.items():
        try:
            built[name] = cls(**kwargs[name]) if kwargs[name] else None
        except ValueError as exc:
            raise ScenarioError(f"{where(None)}: {name}: {exc}") from None
    return ScenarioConfig(values=tuple(values.get(key) for key in KEYS), **built, **top)


def parse_scenario_text(text: str, source: str = "<string>") -> ScenarioConfig:
    given: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        head = key.rsplit(".", 1)[0]
        if head in KEYS and KEYS[head].indexed:
            given[head] = given.get(head, ()) + (_read(head, val, f"{source}:{lineno}"),)
            continue
        if key not in KEYS:
            raise ScenarioError(f"{source}:{lineno}: unknown key {key!r}")
        if key in given:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        given[key] = _read(key, val, f"{source}:{lineno}")
        lines[key] = lineno
    return _build(given, lambda key: f"{source}:{lines[key]}" if key in lines else source)


def parse_scenario(path: str) -> ScenarioConfig:
    if not os.path.exists(path):
        raise ScenarioError(f"scenario file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), source=path)


def apply_override(cfg: ScenarioConfig, parameter: str, value) -> ScenarioConfig:
    """Return the scenario with one sweepable key set to value (read from
    str(value), as from a scenario file), rebuilt through the same type
    check and validation as a parsed file."""
    if parameter not in SWEEPABLE:
        raise ScenarioError(f"cannot sweep {parameter!r}")
    point = f"sweep point {parameter} = {value}"
    given = {key: v for key, v in zip(KEYS, cfg.values) if v is not None}
    given[parameter] = _read(parameter, str(value), point)
    return _build(given, lambda key: point)


def resolved_text(cfg: ScenarioConfig) -> str:
    """Echo of the fully materialized configuration, defaults included."""
    out = []
    for (key, spec), value in zip(KEYS.items(), cfg.values):
        if spec.indexed:
            out += [f"{key}.{i} = {spec.type.text(v)}" for i, v in enumerate(value, start=1)]
        elif value is not None:
            out.append(f"{key} = {spec.type.text(value)}")
    return "".join(line + "\n" for line in out)
