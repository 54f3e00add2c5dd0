import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftagree import (
    ProtocolKind,
    ProtocolSpec,
    Scenario,
    SwitchingSchedule,
    parse_scenario,
    topology_new,
)
from ftagree.errors import FtagreeError, ScenarioSyntaxError, TopologyError, ValidationError
import ftagree.scenario
from ftagree.scenario import _KEYS

MINIMAL = """\
protocol = p2
alpha = 0.5
x0 = [0, 1]

[topology.G]
edge 0 1 1
"""

SIX_AGENT_SWITCHING = """\
# six agents, four switching topologies
protocol = p2
alpha = 0.5
x0 = [-5, -3, 7, 9, 4, 5]
dt = 1e-3
t_max = 20
agree_tol = 1e-4
record_every = 25
schedule = G1:0.25, G2:0.25, G3:0.25, G4:0.25 cyclic

[topology.G1]
edge 0 1 2
edge 1 2 2
edge 2 3 2
edge 3 4 2
edge 4 5 2
edge 0 5 2

[topology.G2]
edge 0 1 2
edge 1 2 2
edge 2 3 2
edge 3 4 2
edge 4 5 2

[topology.G3]
edge 0 1 2
edge 0 2 2
edge 0 3 2
edge 0 4 2
edge 0 5 2

[topology.G4]
edge 0 1 2
edge 1 2 2
edge 2 3 2
edge 3 4 2
edge 4 5 2
edge 0 5 2
edge 0 3 2
"""


class TestParse:
    def test_minimal_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.protocol.kind is ProtocolKind.P2
        assert sc.protocol.alpha == 0.5
        np.testing.assert_array_equal(sc.x0, [0.0, 1.0])
        assert sc.dt == 1e-3
        assert sc.agree_tol == 1e-6
        assert sc.record_every == 10
        assert sc.t_max == 100.0
        assert sc.topology == "G"
        assert sc.schedule is None
        assert sc.topologies["G"].weights[0, 1] == 1.0

    def test_six_agent_switching(self):
        sc = parse_scenario(SIX_AGENT_SWITCHING)
        assert sc.schedule is not None
        assert sc.schedule.cyclic
        assert [name for name, _ in sc.schedule.phases] == ["G1", "G2", "G3", "G4"]
        assert all(d == 0.25 for _, d in sc.schedule.phases)
        assert len(sc.topologies) == 4
        assert sc.topologies["G4"].weights[0, 3] == 2.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL.replace("alpha = 0.5", "alpha = 1.5"))

    def test_syntax_error_carries_line(self):
        bad = MINIMAL.replace("x0 = [0, 1]", "x0 = 0, 1")
        with pytest.raises(ScenarioSyntaxError) as exc:
            parse_scenario(bad)
        assert exc.value.line == 3

    def test_unknown_key(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("frobnicate = 1\n" + MINIMAL)

    def test_unknown_topology_reference(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL + "topology = H\n")

    def test_schedule_references_unknown(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL + "schedule = G:0.25, H:0.25 cyclic\n")

    def test_dwell_not_multiple_of_dt(self):
        text = MINIMAL + "dt = 0.004\nschedule = G:0.25 cyclic\n"
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_missing_alpha_for_p1(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL.replace("alpha = 0.5\n", "").replace("p2", "p1"))

    def test_linear_without_alpha(self):
        sc = parse_scenario(MINIMAL.replace("p2", "linear").replace("alpha = 0.5\n", ""))
        assert sc.protocol.kind is ProtocolKind.LINEAR
        assert sc.protocol.alpha == 1.0

    def test_edge_errors_reported(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL + "\n[topology.H]\nedge 0 0 1\n")

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n" + MINIMAL.replace(
            "edge 0 1 1", "edge 0 1 1  # trailing comment"
        )
        sc = parse_scenario(text)
        assert sc.topologies["G"].weights[0, 1] == 1.0


# (text, error type, line number): the line is None for errors that no
# single line causes. MINIMAL's lines are: 1 protocol, 2 alpha, 3 x0,
# 4 blank, 5 the section header, 6 the edge.
REJECTED = {
    "edge-prefix-word": (MINIMAL.replace("edge 0 1 1", "edgewise 0 1 1"), ScenarioSyntaxError, 6),
    "edge-arity": (MINIMAL.replace("edge 0 1 1", "edge 0 1"), ScenarioSyntaxError, 6),
    "edge-index": (MINIMAL.replace("edge 0 1 1", "edge 0 a 1"), ScenarioSyntaxError, 6),
    "edge-weight": (MINIMAL.replace("edge 0 1 1", "edge 0 1 w"), ScenarioSyntaxError, 6),
    "x0-empty-item": (MINIMAL.replace("[0, 1]", "[0, 1,, 2]"), ScenarioSyntaxError, 3),
    "x0-trailing-comma": (MINIMAL.replace("[0, 1]", "[0, 1,]"), ScenarioSyntaxError, 3),
    "schedule-empty-item": (MINIMAL + "schedule = G:0.25,,G:0.25\n", ScenarioSyntaxError, 7),
    "schedule-trailing-comma": (MINIMAL + "schedule = G:0.25,\n", ScenarioSyntaxError, 7),
    "schedule-two-commas-before-cyclic": (
        MINIMAL + "schedule = G:0.25,, cyclic\n", ScenarioSyntaxError, 7
    ),
    "schedule-needs-name-dwell": (MINIMAL + "schedule = G 0.25\n", ScenarioSyntaxError, 7),
    "schedule-empty": (MINIMAL + "schedule = cyclic\n", ScenarioSyntaxError, 7),
    "schedule-glued-cyclic": (MINIMAL + "schedule = G:0.25cyclic\n", ScenarioSyntaxError, 7),
    "duplicate-section": (MINIMAL + "[topology.G]\n", ScenarioSyntaxError, 7),
    "malformed-section": (MINIMAL + "[topology.G\n", ScenarioSyntaxError, 7),
    "duplicate-key": (MINIMAL.replace("alpha = 0.5", "alpha = 0.5\nalpha = 0.5"),
                      ScenarioSyntaxError, 3),
    # A value is read on its own line, so the first bad line in the file is named.
    "bad-alpha-before-unknown-key": (MINIMAL.replace("alpha = 0.5", "alpha = x") + "bogus = 1\n",
                                     ScenarioSyntaxError, 2),
    "bad-x0-before-duplicate-section": (
        MINIMAL.replace("[0, 1]", "[0, a]") + "[topology.G]\n", ScenarioSyntaxError, 3
    ),
    "unknown-protocol": (MINIMAL.replace("p2", "p3"), ScenarioSyntaxError, 1),
    "missing-protocol": (MINIMAL.replace("protocol = p2\n", ""), ValidationError, None),
    "missing-x0": (MINIMAL.replace("x0 = [0, 1]\n", ""), ValidationError, None),
}


@pytest.mark.parametrize("text, error, line", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_text_names_its_line(text, error, line):
    with pytest.raises(error) as exc:
        parse_scenario(text)
    assert getattr(exc.value, "line", None) == line


def test_empty_x0_keeps_its_message():
    with pytest.raises(ScenarioSyntaxError, match="x0 must not be empty") as exc:
        parse_scenario(MINIMAL.replace("[0, 1]", "[]"))
    assert exc.value.line == 3


def test_one_comma_before_cyclic_is_allowed():
    for value in ("G:0.25, cyclic", "G:0.25,cyclic"):
        sc = parse_scenario(MINIMAL + f"schedule = {value}\n")
        assert sc.schedule.phases == (("G", 0.25),)
        assert sc.schedule.cyclic


class TestRoundTrip:
    def test_topology_named_cyclic_round_trips(self):
        text = MINIMAL.replace("[topology.G]", "[topology.cyclic]")
        text += "schedule = cyclic:0.25 cyclic\n"
        sc = parse_scenario(text)
        assert sc.schedule == SwitchingSchedule((("cyclic", 0.25),), True)


# --- the bulk reader against the per-line reader it replaced --------------


def reference_x0(value, lineno):
    """x0 item by item, as the per-line reader read it."""
    if not (value.startswith("[") and value.endswith("]")):
        raise ScenarioSyntaxError(lineno, "x0 must be a bracketed comma list")
    inner = value[1:-1]
    if not inner.strip():
        raise ScenarioSyntaxError(lineno, "x0 must not be empty")
    items = [s.strip() for s in inner.split(",")]
    if "" in items:
        raise ScenarioSyntaxError(lineno, "x0 has an empty item")
    return [reference_float(s, lineno, "x0 entry") for s in items]


def reference_float(value, lineno, what):
    try:
        return float(value)
    except ValueError:
        raise ScenarioSyntaxError(lineno, f"bad {what}: {value!r}") from None


def reference_parse(text):
    """The per-line reader, kept as the oracle of parse_scenario: one
    split, two int and one float per edge line, x0 item by item. Keys
    other than x0 go through the module's readers, which it shares."""
    values, topo_edges, section = {}, {}, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if section is not None and parts[0] == "edge":
            if len(parts) != 4:
                raise ScenarioSyntaxError(lineno, "edge lines are: edge i j w")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ScenarioSyntaxError(lineno, "edge indices must be integers") from None
            topo_edges[section].append((i, j, reference_float(parts[3], lineno, "edge weight")))
            continue
        m = re.match(r"^\[topology\.([A-Za-z0-9_]+)\]$", line)
        if m:
            if m.group(1) in topo_edges:
                raise ScenarioSyntaxError(lineno, f"duplicate topology section {m.group(1)!r}")
            topo_edges[m.group(1)] = []
            section = m.group(1)
            continue
        if line.startswith("["):
            raise ScenarioSyntaxError(lineno, f"malformed section header: {line!r}")
        if "=" not in line:
            raise ScenarioSyntaxError(lineno, f"expected key = value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ScenarioSyntaxError(lineno, f"unknown key {key!r}")
        if key in values:
            raise ScenarioSyntaxError(lineno, f"duplicate key {key!r}")
        read = _KEYS[key] if key != "x0" else lambda v, n, k: reference_x0(v, n)
        values[key] = read(value, lineno, key)
        section = None

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
    topologies = {}
    for name, edges in topo_edges.items():
        try:
            topologies[name] = topology_new(len(values["x0"]), edges)
        except TopologyError as exc:
            raise ValidationError(f"topology {name!r}: {exc}") from exc
    if "schedule" not in values and "topology" not in values and len(topologies) == 1:
        values["topology"] = next(iter(topologies))
    return Scenario(protocol=protocol, topologies=topologies, **values)


def outcome(parse, text):
    """What parse makes of text, in terms that compare with ==: the
    scenario's fields, arrays as (dtype, shape, bytes), or the error."""
    try:
        sc = parse(text)
    except Exception as exc:  # noqa: BLE001 - any error must match
        return ("error", type(exc), str(exc), getattr(exc, "line", None))

    def exact(a):
        return (a.dtype.str, a.shape, a.tobytes())

    fields = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)}
    fields["x0"] = exact(sc.x0)
    fields["topologies"] = {
        name: (t.n, exact(t.i), exact(t.j), exact(t.w)) for name, t in sc.topologies.items()
    }
    return ("ok", fields)


# Words an edge or x0 line may hold: good and bad numbers, underscores,
# non-ASCII digits, indices past int64, nan and inf.
INDEX_WORDS = ["0", "1", "2", "3", "01", "+1", "-1", "1_0", "1__0", "٣", "१",
               str(2**63), str(2**64), "1.0", "a", "0x1", "edge"]
WEIGHT_WORDS = ["1", "0.5", "2.0", "1e308", "nan", "inf", "-inf", "-1", "0", "-0.0", "1_0.5",
                "١", "+1.5", "w", "0x1", "1e", "edge"]
# Separators inside a line: space, tab, and other whitespace that
# str.split splits on without ending the line.
GAPS = [" ", " ", " ", "  ", "\t", "\x1f", "\xa0", "　"]
# str.splitlines' line breaks.
BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x85", " "]
OTHER_LINES = [
    "", "", "   ", "\t", "# comment", "# edge 0 1 1", "  # edge 0 1", "edge", "edgewise 0 1 1",
    "Edge 0 1 1", "1", "2 1", "foo", "= 1", "edge = 1", "edge 0 1 [1]", "[topology.G]", "[topology.H]",
    "[topology.G", "dt = 0.01", "t_max = 1", "topology = G", "schedule = G:0.25, H:0.25 cyclic",
    "x0 = [0, 1, 2, 3]", "x0 = [0, 1_0, ٢, 3]", "x0 = [0,, 1, 2]", "x0 = [0, nan, 1, 2]",
    "x0 = [ 0 ,\t1,2\xa0, 3 ]", "x0 = [0, x, 1, 2]", "x0 = []", "alpha = 0.5", "protocol = p1",
]


@st.composite
def edge_line(draw, i, j):
    """Mostly the edge (i, j) with a good weight, written with odd spacing
    or comments now and then; else an edge line of odd words."""
    if draw(st.integers(0, 7)):
        words = ["edge", str(i), str(j), draw(st.sampled_from(["1", "0.5", "2", "1.25"]))]
    else:
        count = draw(st.sampled_from([2, 3, 3, 4]))
        words = ["edge"] + [draw(st.sampled_from(INDEX_WORDS)) for _ in range(count - 1)]
        words.append(draw(st.sampled_from(WEIGHT_WORDS)))
    line = words[0]
    for word in words[1:]:
        line += (draw(st.sampled_from(GAPS)) if not draw(st.integers(0, 5)) else " ") + word
    if not draw(st.integers(0, 5)):
        line = draw(st.sampled_from(GAPS)) + line
    if not draw(st.integers(0, 5)):
        line += draw(st.sampled_from(["  # edge 0 1 1", "#", " ", "\t"]))
    return line


PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@st.composite
def scenario_texts(draw):
    """Four agents and one to three sections of distinct edges, with a few
    odd lines put in anywhere (a repeated section among them), and any
    line break after each line."""
    names = draw(st.lists(st.sampled_from("GHK"), min_size=1, max_size=3, unique=True))
    lines = ["protocol = p2", "alpha = 0.5", "x0 = [0, 1, 2, 3]"]
    if len(names) > 1:
        lines.append(f"topology = {names[0]}")
    for name in names:
        lines.append(f"[topology.{name}]")
        for i, j in draw(st.lists(st.sampled_from(PAIRS), unique=True, max_size=6)):
            lines.append(draw(edge_line(*((j, i) if draw(st.booleans()) else (i, j)))))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        odd = st.one_of(st.sampled_from(OTHER_LINES), edge_line(1, 2))
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(BREAKS))
    return text if draw(st.booleans()) else text[:-1]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=scenario_texts())
@example(text=MINIMAL + "edge 0 1 1\n")  # an edge line outside any section
@example(text=MINIMAL.replace("\n", "\r\n"))
@example(text=MINIMAL.replace("\n", " ") + "[topology.H]\x0c\x1cedge\t0\t1\t2\x0b")
@example(text=MINIMAL.replace("edge 0 1 1", f"edge 0 {2**63} 1"))
@example(text=MINIMAL.replace("edge 0 1 1", "edge 0 1_0 1 # edge 0 1 1\n\n#\nedge 1 0 inf"))
@example(text=MINIMAL.replace("edge 0 1 1", "edge 0 1 nan"))
@example(text=MINIMAL.replace("[0, 1]", "[ 1_0 ,\t٢\xa0]"))
@example(text=MINIMAL.replace("[0, 1]", "[0, a]"))
@example(text=MINIMAL.replace("[0, 1]", "[0,, 1]"))
@example(text=MINIMAL.replace("edge 0 1 1", "edge 0 1\n1"))  # four words on two lines
@example(text=MINIMAL.replace("edge 0 1 1", "edge 0 ١ 1 1"))
@example(text=MINIMAL + "[topology.H]\n[topology.H]\n")
# A whitespace-only and a comment-only line inside a run of edge lines.
@example(text=MINIMAL.replace("[0, 1]", "[0, 1, 2]").replace(
    "edge 0 1 1", "edge 0 1 1\n \t\n# a comment\nedge 1 2 1"))
@example(text=MINIMAL.replace("edge 0 1 1", "edge 0 1 1  # w = [1]"))
def test_bulk_reader_matches_the_per_line_reader(text):
    expected = outcome(reference_parse, text)
    assert outcome(parse_scenario, text) == expected


def test_edge_lines_take_the_block_read(monkeypatch):
    # The per-line reader gives the same result, so only a spy sees
    # whether a run of edge lines, one with a comment holding "=", skipped it.
    text = SIX_AGENT_SWITCHING.replace("edge 2 3 2\n", "edge 2 3 2  # w = 2\n", 1)
    seen, original = [], ftagree.scenario._read_line

    def read_line(line, *args):
        seen.append(line)
        return original(line, *args)

    monkeypatch.setattr(ftagree.scenario, "_read_line", read_line)
    assert outcome(parse_scenario, text) == outcome(parse_scenario, SIX_AGENT_SWITCHING)
    assert "protocol = p2" in seen
    assert not [line for line in seen if line.lstrip().startswith("edge")]
