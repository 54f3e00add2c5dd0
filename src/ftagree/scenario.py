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

Comments start with `#`. A key the file leaves out takes Scenario's
default.
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
# str.splitlines' line breaks other than "\n".
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT_RE = re.compile(r"#[^\n]*")
_BLANK_LINES_RE = re.compile(r"\n\n+")
# `cyclic` is a separate last word: alone, or after whitespace or a comma.
_CYCLIC_RE = re.compile(r"(?:^|[\s,])cyclic$")


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


def _parse_protocol(value: str, lineno: int, key: str) -> ProtocolKind:
    try:
        return ProtocolKind(value)
    except ValueError:
        raise ValidationError(
            f"line {lineno}: protocol must be p1, p2 or linear, got {value!r}"
        ) from None


def _parse_x0(value: str, lineno: int, key: str) -> list[float]:
    if not (value.startswith("[") and value.endswith("]")):
        raise ScenarioSyntaxError(lineno, "x0 must be a bracketed comma list")
    inner = value[1:-1]
    if not inner.strip():
        raise ScenarioSyntaxError(lineno, "x0 must not be empty")
    try:
        # float ignores the whitespace around an item and refuses an empty one.
        return list(map(float, inner.split(",")))
    except ValueError:
        pass  # read item by item below, to name the fault
    return [_parse_float(s, lineno, "x0 entry") for s in _split_items(inner, lineno, "x0")]


def _parse_schedule(value: str, lineno: int, key: str) -> SwitchingSchedule:
    cyclic = _CYCLIC_RE.search(value) is not None
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


# Each key's reader, called as reader(value, lineno, key) on the key's line.
_KEYS = {
    "protocol": _parse_protocol,
    "alpha": _parse_float,
    "x0": _parse_x0,
    "dt": _parse_float,
    "t_max": _parse_float,
    "agree_tol": _parse_float,
    "record_every": _parse_float,
    "schedule": _parse_schedule,
    "topology": lambda value, lineno, key: value,
}


def _read_line(line, lineno, section, values, topo_edges) -> str | None:
    """Read one line into values or topo_edges; returns the section that
    the next line is in."""
    line = line.strip()
    if not line:
        return section
    if section is not None and line.split(None, 1)[0] == "edge":
        parts = line.split()
        if len(parts) != 4:
            raise ScenarioSyntaxError(lineno, "edge lines are: edge i j w")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise ScenarioSyntaxError(lineno, "edge indices must be integers") from None
        w = _parse_float(parts[3], lineno, "edge weight")
        topo_edges[section].append((i, j, w))
        return section
    m = _SECTION_RE.match(line)
    if m:
        name = m.group(1)
        if name in topo_edges:
            raise ScenarioSyntaxError(lineno, f"duplicate topology section {name!r}")
        topo_edges[name] = []
        return name
    if line.startswith("["):
        raise ScenarioSyntaxError(lineno, f"malformed section header: {line!r}")
    if "=" not in line:
        raise ScenarioSyntaxError(lineno, f"expected key = value, got {line!r}")
    key, value = (s.strip() for s in line.split("=", 1))
    if key not in _KEYS:
        raise ScenarioSyntaxError(lineno, f"unknown key {key!r}")
    if key in values:
        raise ScenarioSyntaxError(lineno, f"duplicate key {key!r}")
    values[key] = _KEYS[key](value, lineno, key)
    return None


def _key_lines(body: str):
    """Start and end of each line of body that holds a "=" or a "[", in
    order. An edge line that holds either does not parse."""
    hits = dict.fromkeys("=[", -1)
    pos = 0
    while True:
        for c, at in hits.items():
            if at < pos:
                found = body.find(c, pos)
                hits[c] = found if found >= 0 else len(body)
        at = min(hits.values())
        if at == len(body):
            return
        pos = body.index("\n", at)
        yield body.rindex("\n", 0, at) + 1, pos


def _read_edge_block(block: str, edges: list) -> bool:
    """Append the edges of block (lines that each end in "\n") and return
    True if every line is empty or an edge line that starts with "edge "
    and that _read_line accepts; else append nothing and return False."""
    block = f"\n{block}".rstrip("\n")
    if "\n\n" in block:
        block = _BLANK_LINES_RE.sub("\n", block)
    words = block.split()
    rows = len(words) // 4
    # There are rows lines, each starting with "edge ". One that starts
    # off words 0, 4, 8, ... puts its "edge" in a number column, which int
    # or float refuses; so each line has four words.
    if not (len(words) == 4 * rows and block.count("\n") == block.count("\nedge ") == rows):
        return False
    try:
        i = list(map(int, words[1::4]))
        j = list(map(int, words[2::4]))
        w = list(map(float, words[3::4]))
    except ValueError:
        return False
    edges.extend(zip(i, j, w))
    return True


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Syntax problems raise ScenarioSyntaxError naming the first offending
    line; semantically invalid content raises ValidationError, mostly
    from the checks Scenario runs when it is built.

    Lines are read one at a time by _read_line, except the lines between
    two key or header lines inside a section: that block is read whole
    by _read_edge_block, and line by line only if it fails.
    """
    values: dict[str, object] = {}
    topo_edges: dict[str, list[tuple[int, int, float]]] = {}
    section: str | None = None
    if any(c in text for c in _BREAKS):
        text = "\n".join(text.splitlines())
    # Dropping the comments keeps every line break, so line numbers stay.
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    # Each line between a "\n" before it and one after it.
    body = f"\n{text}\n"
    lineno, start = 1, 1
    for key_start, key_end in [*_key_lines(body), (len(body), len(body))]:
        block = body[start:key_start]
        if section is None or not _read_edge_block(block, topo_edges[section]):
            for k, line in enumerate(block.split("\n")[:-1]):
                section = _read_line(line, lineno + k, section, values, topo_edges)
        lineno += block.count("\n")
        if key_start < len(body):
            section = _read_line(body[key_start:key_end], lineno, section, values, topo_edges)
            lineno, start = lineno + 1, key_end + 1

    for key in ("protocol", "x0"):
        if key not in values:
            raise ValidationError(f"missing required key: {key}")
    kind = values.pop("protocol")
    if kind is not ProtocolKind.LINEAR and "alpha" not in values:
        raise ValidationError("protocols p1/p2 require an alpha key")
    alpha = {"alpha": values.pop("alpha")} if "alpha" in values else {}
    try:
        protocol = ProtocolSpec(kind, **alpha)
    except FtagreeError as exc:
        raise ValidationError(str(exc)) from exc

    n = len(values["x0"])
    topologies = {}
    for name, edges in topo_edges.items():
        try:
            topologies[name] = topology_new(n, edges)
        except TopologyError as exc:
            raise ValidationError(f"topology {name!r}: {exc}") from exc

    if "schedule" not in values and "topology" not in values and len(topologies) == 1:
        values["topology"] = next(iter(topologies))
    return Scenario(protocol=protocol, topologies=topologies, **values)


def render_scenario(sc: Scenario) -> str:
    """Serialize a Scenario back into the file grammar.

    parse(render(parse(text))) equals parse(text) on semantic content.
    A topology name that a section header cannot hold raises ValidationError.
    """
    for name in sc.topologies:
        if not _SECTION_RE.match(f"[topology.{name}]"):
            raise ValidationError(f"topology name {name!r} cannot be written to a scenario file")
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
