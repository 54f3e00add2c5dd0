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
from .errors import ScenarioSyntaxError, TopologyError, ValidationError
from .graph import _topology_from_columns
from .protocols import ProtocolKind, ProtocolSpec

_SECTION_RE = re.compile(r"^\[topology\.([A-Za-z0-9_]+)\]$")
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
        raise ScenarioSyntaxError(
            lineno, f"protocol must be p1, p2 or linear, got {value!r}") from None


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
    """Read one line into values or topo_edges (the i, j and w columns
    of each section); returns the section that the next line is in."""
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
        for column, value in zip(topo_edges[section], (i, j, w)):
            column.append(value)
        return section
    m = _SECTION_RE.match(line)
    if m:
        name = m.group(1)
        if name in topo_edges:
            raise ScenarioSyntaxError(lineno, f"duplicate topology section {name!r}")
        topo_edges[name] = ([], [], [])
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


def _read_edge_block(lines: list[str], columns: tuple) -> bool:
    """Append the i, j and w of each edge of lines to columns and return
    True if every line is empty or an edge line that starts with "edge "
    and that _read_line accepts; else append nothing and return False."""
    block = "\n".join(lines)
    words = block.split()
    rows = len(lines) - lines.count("")
    # There are rows lines, each starting with "edge ". One that starts
    # off words 0, 4, 8, ... puts its "edge" in a number column, which int
    # or float refuses; so each line has four words.
    if not (len(words) == 4 * rows and f"\n{block}".count("\nedge ") == rows):
        return False
    try:
        i = list(map(int, words[1::4]))
        j = list(map(int, words[2::4]))
        w = list(map(float, words[3::4]))
    except ValueError:
        return False
    for column, values in zip(columns, (i, j, w)):
        column.extend(values)
    return True


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Syntax problems raise ScenarioSyntaxError naming the first offending
    line; semantically invalid content raises ValidationError, mostly
    from the checks Scenario runs when it is built.

    Lines are read one at a time by _read_line, except the lines between
    two key or header lines inside a section: that run is read whole by
    _read_edge_block, and line by line only if it fails.
    """
    values: dict[str, object] = {}
    topo_edges: dict[str, tuple[list[int], list[int], list[float]]] = {}
    section: str | None = None
    lines = text.splitlines()
    # Dropping a comment keeps its line, so line k is still number k + 1.
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    # The key and header lines; an edge line that holds a "=" or a "["
    # does not parse.
    keys = [k for k, line in enumerate(lines) if "=" in line or "[" in line]
    start = 0
    for stop in [*keys, len(lines)]:
        run = lines[start:stop]
        if section is None or not _read_edge_block(run, topo_edges[section]):
            for k, line in enumerate(run, start):
                section = _read_line(line, k + 1, section, values, topo_edges)
        if stop < len(lines):
            section = _read_line(lines[stop], stop + 1, section, values, topo_edges)
        start = stop + 1

    for key in ("protocol", "x0"):
        if key not in values:
            raise ValidationError(f"missing required key: {key}")
    kind = values.pop("protocol")
    if kind is not ProtocolKind.LINEAR and "alpha" not in values:
        raise ValidationError("protocols p1/p2 require an alpha key")
    alpha = {"alpha": values.pop("alpha")} if "alpha" in values else {}
    protocol = ProtocolSpec(kind, **alpha)

    n = len(values["x0"])
    topologies = {}
    for name, columns in topo_edges.items():
        try:
            topologies[name] = _topology_from_columns(n, *columns)
        except TopologyError as exc:
            raise ValidationError(f"topology {name!r}: {exc}") from exc

    if "schedule" not in values and "topology" not in values and len(topologies) == 1:
        values["topology"] = next(iter(topologies))
    return Scenario(protocol=protocol, topologies=topologies, **values)
