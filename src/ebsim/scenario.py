"""Scenario files: flat key-value text with dotted sections.

Grammar (one entry per line):

    key = value            # '#' starts a comment
    key = [v1, v2, v3]     # list value (sweeps)

Durations are integer ticks (1 tick = 1 ms).  KEYS is the one registry of
keys: parsing, sweep overrides and the resolved-config echo are all derived
from it (the README's key table mirrors it).  A key that sets a field of
sim.RunSpec or of one of its records takes that field's default.  A parsed
scenario is a ScenarioConfig: the keys as given and the sim.RunSpec they
build.  Churn entries use indexed keys:

    churn.1 = leave 12 at 30
    churn.2 = join 25 at 60 edges 7,11,13,17
"""

import os
from typing import Callable, NamedTuple

from .protocol import MrfConfig, ProtocolConfig, Variant
from .sim import (ChurnEvent, ClockDriftModel, DelayModel, Engine, LinkFaultModel,
                  RunResult, RunSpec, run_error)
from .topology import (Topology, load_topology, make_complete,
                       make_random_geometric, make_regular_grid)


class ScenarioError(ValueError):
    pass


class ScenarioConfig(NamedTuple):
    """A parsed scenario, or one of its sweep points; read-only.

    given holds the keys as written, a point's override and the sweep's two
    keys included; resolved_text and apply_override resolve it again, so a
    default tied to another key (mrf.t_ref = T/2) follows that key.  spec,
    the run, is built from it and passes sim.run_error, so a run of it can
    start; its fields read through (cfg.seed is cfg.spec.seed).
    """

    given: dict[str, object]
    spec: RunSpec

    def __getattr__(self, name: str):
        return getattr(self.spec, name)


# each topology kind: the name of its builder here (looked up per call, so a
# wrapper bound over the module global runs) and the parameters it takes;
# the topology.<parameter> keys apply to the kinds whose builder takes them
_TOPOLOGIES: dict[str, tuple[str, tuple[str, ...]]] = {
    "grid": ("make_regular_grid", ("rows", "cols", "wraparound")),
    "random_geometric": ("make_random_geometric", ("n", "radius", "seed")),
    "complete": ("make_complete", ("n",)),
    "file": ("load_topology", ("path",)),
}


def build_topology(kind: str, **fields) -> Topology:
    """The network of a topology kind, built from its parameters."""
    return globals()[_TOPOLOGIES[kind][0]](**fields)


def run_config(cfg: ScenarioConfig, scheme: str = "ebs",
               trace: bool = False) -> RunResult:
    """Execute one run of a scenario, "ebs" or (with mrf.enabled) "mrf"; other
    seeds are sweep points or apply_override(cfg, "run.seed", seed)."""
    if scheme not in ("ebs", "mrf"):
        raise ScenarioError(f"unknown scheme {scheme!r}; expected 'ebs' or 'mrf'")
    if scheme == "mrf" and cfg.mrf is None:
        raise ScenarioError("scheme 'mrf' needs mrf.enabled = true")
    return Engine(cfg.spec if scheme == "mrf" else cfg.spec._replace(mrf=None), trace).run()


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


def _item(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _list(text: str) -> tuple:
    items = tuple(_item(s.strip()) for s in text[1:-1].split(",") if s.strip())
    if not (text.startswith("[") and text.endswith("]") and items):
        raise ValueError(text)
    return items


def _topology_kind(text: str) -> str:
    if text not in _TOPOLOGIES:
        raise ValueError(text)
    return text


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


class Key(NamedTuple):
    """One scenario key: how its value is read and echoed, its default and
    the field it sets: a sim.RunSpec field, or "section.attribute" of a
    RunSpec record.  A key setting a record field takes the field's default
    (_field); a field without one makes it required.  A key without a field
    only switches others on (mrf.enabled) or is read from given (the sweep's two keys).
    applies(given) says whether the key takes part at all; a key that does
    not is neither required, built nor echoed, and an error when given.
    An indexed key is written key.N, N a positive integer and each N once;
    it collects a tuple in file order."""

    type: _Type
    default: object
    field: str | None
    applies: Callable[[dict], bool] | None = None
    indexed: bool = False


_REQUIRED = object()  # default of a key that must be given where it applies

# the records built from the keys' "section.attribute" fields
_SECTIONS = {"protocol": ProtocolConfig, "mrf": MrfConfig, "delay": DelayModel,
             "fault": LinkFaultModel, "drift": ClockDriftModel}


def _field(type_: _Type, field: str, applies: Callable | None = None, indexed=False) -> Key:
    """The key that sets field, with the default its record gives it."""
    section, _, attr = field.rpartition(".")
    record = _SECTIONS[section] if section else RunSpec
    return Key(type_, record._field_defaults.get(attr, _REQUIRED), field, applies, indexed)


# cross-key rules: the keys each topology kind reads, and the optional
# sections, present when switched on or when any of their keys is given
def _when(key: str, *values) -> Callable[[dict], bool]:
    return lambda given: given.get(key) in values


def _topology_key(type_: _Type, default: object, name: str) -> Key:
    """The topology.<name> key, applying to the kinds whose builder reads it."""
    kinds = [kind for kind, (_, fields) in _TOPOLOGIES.items() if name in fields]
    return Key(type_, default, f"topology.{name}", _when("topology.kind", *kinds))


def _any_given(*keys: str) -> Callable[[dict], bool]:
    return lambda given: any(key in given for key in keys)


_LINK = _any_given("delay.link_lo", "delay.link_hi", "delay.link_seed")
_SWEEP = _any_given("sweep.parameter", "sweep.values")

KEYS: dict[str, Key] = {
    "topology.kind": Key(_Type(" or ".join(_TOPOLOGIES), _topology_kind), _REQUIRED, "topology.kind"),
    "topology.rows": _topology_key(_INT, _REQUIRED, "rows"),
    "topology.cols": _topology_key(_INT, _REQUIRED, "cols"),
    "topology.wraparound": _topology_key(_BOOL, False, "wraparound"),
    "topology.n": _topology_key(_INT, _REQUIRED, "n"),
    "topology.radius": _topology_key(_FLOAT, _REQUIRED, "radius"),
    "topology.seed": _topology_key(_INT, 0, "seed"),
    "topology.path": _topology_key(_STR, _REQUIRED, "path"),
    "protocol.period_t": _field(_INT, "protocol.period_t"),
    "protocol.epsilon": _field(_FLOAT, "protocol.epsilon"),
    "protocol.sigma": _field(_FLOAT, "protocol.sigma"),
    "protocol.s_th": _field(_FLOAT, "protocol.s_th"),
    "protocol.c0": _field(_INT, "protocol.c0"),
    "protocol.variant": _field(_Type(" or ".join(v.value for v in Variant), Variant,
                                     lambda v: v.value), "protocol.variant"),
    "protocol.adaptive_c": _field(_BOOL, "protocol.adaptive_c"),
    "protocol.init_listen_periods": _field(_INT, "protocol.init_listen_periods"),
    "mrf.enabled": Key(_BOOL, False, None),
    "mrf.t_ref": Key(_INT, lambda values: values["protocol.period_t"] // 2,
                     "mrf.refractory", _when("mrf.enabled", True)),
    "mrf.sleep": _field(_BOOL, "mrf.sleep_during_refractory", _when("mrf.enabled", True)),
    "delay.kind": _field(_STR, "delay.kind"),
    "delay.nu": _field(_INT, "delay.nu"),
    "delay.lo": _field(_INT, "delay.lo"),
    "delay.hi": _field(_INT, "delay.hi"),
    "delay.link_lo": _field(_INT, "delay.link_lo", _LINK),
    "delay.link_hi": Key(_INT, _REQUIRED, "delay.link_hi", _LINK),  # its field's None: no table
    "delay.link_seed": _field(_INT, "delay.link_seed", _LINK),
    "fault.loss_probability": _field(_FLOAT, "fault.loss_probability"),
    "fault.collisions": _field(_BOOL, "fault.collisions_enabled"),
    "fault.beta": _field(_INT, "fault.airtime_beta"),
    "drift.skew_ppm_min": _field(_FLOAT, "drift.skew_ppm_min"),
    "drift.skew_ppm_max": _field(_FLOAT, "drift.skew_ppm_max"),
    "run.horizon": _field(_INT, "horizon"),
    "run.seed": _field(_INT, "seed"),
    "run.payload_rate": _field(_FLOAT, "payload_rate"),
    "churn": _field(_Type("churn entry 'leave <id> at <period>' or "
                          "'join <id> at <period> edges <id,id,...>'", _churn, _churn_text),
                    "churn", indexed=True),
    "sweep.parameter": Key(_STR, _REQUIRED, None, _SWEEP),
    "sweep.values": Key(_Type("non-empty [a, b, ...] list", _list,
                              lambda v: f"[{', '.join(map(str, v))}]"),
                        _REQUIRED, None, _SWEEP),
}

# a sweep may vary any single-valued key outside the topology (churn
# entries name its node ids) and the sweep itself
SWEEPABLE = tuple(key for key, spec in KEYS.items()
                  if not spec.indexed and key.split(".")[0] not in ("topology", "sweep"))

# the key behind each input sim.run_error can name; a churn entry names itself
_KEY_OF = {spec.field: key for key, spec in KEYS.items() if spec.field} | {"topology": "topology.kind"}


def _read(key: str, text: str, where: str):
    kind = KEYS[key].type
    try:
        return kind.parse(text)
    except ValueError:
        raise ScenarioError(f"{where}: {key}: expected {kind.name}, got {text!r}") from None


def _resolve(given: dict[str, object], where: Callable[[str | None], str]) -> dict[str, object]:
    """Each key that applies, in registry order, given or defaulted and
    checked across keys; where(key) names where a key's value came from
    (None: the scenario; "churn.i": churn entry i) for error messages."""
    values: dict[str, object] = {}
    for key, spec in KEYS.items():
        if spec.applies is not None and not spec.applies(given):
            if key in given:
                raise ScenarioError(f"{where(key)}: {key} does not apply to this scenario")
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
    return values


def _build(given: dict[str, object], where: Callable[[str | None], str],
           topology: Topology | None = None) -> ScenarioConfig:
    """The config that runs the given keys, on the given topology if any,
    else on one built from the keys; where is _resolve's.  Its RunSpec
    passes sim.run_error, or it fails at the key behind the input at fault."""
    kwargs: dict[str, dict] = {name: {} for name in ("topology", *_SECTIONS)}
    top: dict[str, object] = {}
    for key, value in _resolve(given, where).items():
        section, _, attr = (KEYS[key].field or "").rpartition(".")
        if attr:
            (kwargs[section] if section else top)[attr] = value
    if topology is None:
        try:
            topology = build_topology(**kwargs["topology"])
        except (ValueError, OSError) as exc:
            raise ScenarioError(f"{where('topology.kind')}: topology: {exc}") from None
    records = {name: make(**kwargs[name]) if kwargs[name] else None
               for name, make in _SECTIONS.items()}
    spec = RunSpec(topology, **records, **top)
    if bad := run_error(spec):
        raise ScenarioError(f"{where(_KEY_OF.get(bad[0], bad[0]))}: {bad[1]}")
    return ScenarioConfig(given, spec)


def parse_scenario_text(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse scenario text; source names it in messages, and a relative
    topology.path is read from source's directory (for "<string>", the
    working directory) and kept as an absolute path."""
    given: dict[str, object] = {}
    lines: dict[str, int] = {}
    entries: set[str] = set()  # the indexed keys written, as key.N
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        head, _, index = key.rpartition(".")
        indexed = head in KEYS and KEYS[head].indexed
        if indexed and index.isascii() and index.isdigit() and index[0] != "0":
            if key in entries:
                raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
            entries.add(key)
            given[head] = given.get(head, ()) + (_read(head, val, f"{source}:{lineno}"),)
            lines[f"{head}.{len(given[head]) - 1}"] = lineno  # for where(f"{head}.{i}")
            continue
        if key not in KEYS or KEYS[key].indexed:
            raise ScenarioError(f"{source}:{lineno}: unknown key {key!r}")
        if key in given:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        given[key] = _read(key, val, f"{source}:{lineno}")
        lines[key] = lineno
    if "topology.path" in given:
        given["topology.path"] = os.path.abspath(
            os.path.join(os.path.dirname(source), given["topology.path"]))
    return _build(given, lambda key: f"{source}:{lines[key]}" if key in lines else source)


def parse_scenario(path: str) -> ScenarioConfig:
    if not os.path.exists(path):
        raise ScenarioError(f"scenario file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), source=path)


def apply_override(cfg: ScenarioConfig, parameter: str, value) -> ScenarioConfig:
    """The scenario of cfg's written keys with one sweepable key set to
    value (read from str(value)), resolved and checked as a parsed file is;
    it shares cfg's network, since no topology key is sweepable."""
    if parameter not in SWEEPABLE:
        raise ScenarioError(f"cannot sweep {parameter!r}")
    point = f"sweep point {parameter} = {value}"
    given = {**cfg.given, parameter: _read(parameter, str(value), point)}
    return _build(given, lambda key: point, cfg.topology)


def resolved_text(cfg: ScenarioConfig) -> str:
    """Echo of the fully materialized configuration, defaults included."""
    out = []
    for key, value in _resolve(cfg.given, str).items():  # cannot fail: cfg was built
        spec = KEYS[key]
        out += ([f"{key}.{i} = {spec.type.text(v)}" for i, v in enumerate(value, start=1)]
                if spec.indexed else [f"{key} = {spec.type.text(value)}"])
    return "".join(line + "\n" for line in out)
