"""Scenario file grammar: line-oriented `key = value` pairs plus
`[topology.NAME]` sections of `edge i j w` lines.

Example::

    protocol = p2
    alpha = 0.5
    x0 = [0, 1]
    dt = 1e-4
    topology = G1          # or: schedule = G1:0.25, G2:0.25 cyclic

    [topology.G1]
    edge 0 1 1

Comments start with `#`. Defaults: dt=1e-3, agree_tol=1e-6,
record_every=10, t_max=100.
"""

import re

from .engine import Scenario, SwitchingSchedule
from .errors import (
    FtagreeError,
    ScenarioSyntaxError,
    TopologyError,
    ValidationError,
)
from .graph import topology_new
from .protocols import ProtocolKind, ProtocolSpec

_SECTION_RE = re.compile(r"^\[topology\.([A-Za-z0-9_]+)\]$")
_KEYS = {
    "protocol",
    "alpha",
    "x0",
    "dt",
    "t_max",
    "agree_tol",
    "record_every",
    "schedule",
    "topology",
}


def _parse_float(value: str, lineno: int, what: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScenarioSyntaxError(lineno, f"bad {what}: {value!r}") from None


def _split_items(value: str, lineno: int, what: str) -> list[str]:
    """The comma-separated items of value, none of them empty."""
    items = [s.strip() for s in value.split(",")]
    if "" in items:
        raise ScenarioSyntaxError(lineno, f"{what} has an empty item")
    return items


def _parse_x0(value: str, lineno: int) -> list[float]:
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise ScenarioSyntaxError(lineno, "x0 must be a bracketed comma list")
    inner = value[1:-1]
    if not inner.strip():
        raise ScenarioSyntaxError(lineno, "x0 must not be empty")
    return [_parse_float(s, lineno, "x0 entry") for s in _split_items(inner, lineno, "x0")]


def _parse_schedule(value: str, lineno: int) -> SwitchingSchedule:
    value = value.strip()
    cyclic = value.endswith("cyclic")
    if cyclic:
        # One comma may separate the last phase from the flag.
        value = value.removesuffix("cyclic").strip().removesuffix(",")
    if not value.strip():
        raise ScenarioSyntaxError(lineno, "schedule must list at least one phase")
    phases = []
    for item in _split_items(value, lineno, "schedule"):
        if ":" not in item:
            raise ScenarioSyntaxError(lineno, f"schedule item {item!r} needs name:dwell")
        name, dwell_s = item.split(":", 1)
        phases.append((name.strip(), _parse_float(dwell_s.strip(), lineno, "dwell")))
    return SwitchingSchedule(phases=tuple(phases), cyclic=cyclic)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Syntax problems raise ScenarioSyntaxError with the offending line
    number; semantically invalid content raises ValidationError, mostly
    from the checks Scenario runs when it is built.
    """
    keys: dict[str, tuple[str, int]] = {}
    topo_edges: dict[str, list[tuple[int, int, float]]] = {}
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # Edge lines come first: they are nearly all of a large file.
        parts = line.split()
        if section is not None and parts[0] == "edge":
            if len(parts) != 4:
                raise ScenarioSyntaxError(lineno, "edge lines are: edge i j w")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ScenarioSyntaxError(lineno, "edge indices must be integers") from None
            w = _parse_float(parts[3], lineno, "edge weight")
            topo_edges[section].append((i, j, w))
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name in topo_edges:
                raise ScenarioSyntaxError(lineno, f"duplicate topology section {name!r}")
            topo_edges[name] = []
            section = name
            continue
        if line.startswith("["):
            raise ScenarioSyntaxError(lineno, f"malformed section header: {line!r}")
        if "=" not in line:
            raise ScenarioSyntaxError(lineno, f"expected key = value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ScenarioSyntaxError(lineno, f"unknown key {key!r}")
        if key in keys:
            raise ScenarioSyntaxError(lineno, f"duplicate key {key!r}")
        keys[key] = (value, lineno)
        section = None

    if "protocol" not in keys:
        raise ValidationError("missing required key: protocol")
    if "x0" not in keys:
        raise ValidationError("missing required key: x0")

    proto_s, proto_line = keys["protocol"]
    try:
        kind = ProtocolKind(proto_s)
    except ValueError:
        raise ValidationError(
            f"line {proto_line}: protocol must be p1, p2 or linear, got {proto_s!r}"
        ) from None
    if kind is not ProtocolKind.LINEAR and "alpha" not in keys:
        raise ValidationError("protocols p1/p2 require an alpha key")
    alpha = 1.0
    if "alpha" in keys:
        alpha = _parse_float(keys["alpha"][0], keys["alpha"][1], "alpha")
    try:
        protocol = ProtocolSpec(kind=kind, alpha=alpha)
    except FtagreeError as exc:
        raise ValidationError(str(exc)) from exc

    x0 = _parse_x0(*keys["x0"])
    n = len(x0)

    topologies = {}
    for name, edges in topo_edges.items():
        try:
            topologies[name] = topology_new(n, edges)
        except TopologyError as exc:
            raise ValidationError(f"topology {name!r}: {exc}") from exc

    schedule = _parse_schedule(*keys["schedule"]) if "schedule" in keys else None
    topology = keys["topology"][0] if "topology" in keys else None
    if schedule is None and topology is None and len(topologies) == 1:
        topology = next(iter(topologies))

    def number(key: str, default: float) -> float:
        return _parse_float(*keys[key], key) if key in keys else default

    return Scenario(
        protocol=protocol,
        topologies=topologies,
        x0=x0,
        schedule=schedule,
        topology=topology,
        dt=number("dt", 1e-3),
        t_max=number("t_max", 100.0),
        agree_tol=number("agree_tol", 1e-6),
        record_every=number("record_every", 10),
    )


def render_scenario(sc: Scenario) -> str:
    """Serialize a Scenario back into the file grammar.

    parse(render(parse(text))) equals parse(text) on semantic content.
    """
    lines = [
        f"protocol = {sc.protocol.kind.value}",
        f"alpha = {sc.protocol.alpha!r}",
        "x0 = [" + ", ".join(repr(float(v)) for v in sc.x0) + "]",
        f"dt = {sc.dt!r}",
        f"t_max = {sc.t_max!r}",
        f"agree_tol = {sc.agree_tol!r}",
        f"record_every = {sc.record_every}",
    ]
    if sc.schedule is not None:
        items = ", ".join(f"{name}:{dwell!r}" for name, dwell in sc.schedule.phases)
        if sc.schedule.cyclic:
            items += " cyclic"
        lines.append(f"schedule = {items}")
    else:
        lines.append(f"topology = {sc.topology}")
    for name in sorted(sc.topologies):
        lines.append("")
        lines.append(f"[topology.{name}]")
        for i, j, w in sc.topologies[name].edges():
            lines.append(f"edge {i} {j} {w!r}")
    return "\n".join(lines) + "\n"
