import numpy as np
import pytest

from ftagree import ProtocolKind, parse_scenario, render_scenario
from ftagree.errors import ScenarioSyntaxError, ValidationError

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
    "duplicate-section": (MINIMAL + "[topology.G]\n", ScenarioSyntaxError, 7),
    "malformed-section": (MINIMAL + "[topology.G\n", ScenarioSyntaxError, 7),
    "duplicate-key": (MINIMAL.replace("alpha = 0.5", "alpha = 0.5\nalpha = 0.5"),
                      ScenarioSyntaxError, 3),
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
    sc = parse_scenario(MINIMAL + "schedule = G:0.25, cyclic\n")
    assert sc.schedule.phases == (("G", 0.25),)
    assert sc.schedule.cyclic


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL, SIX_AGENT_SWITCHING])
    def test_parse_render_parse(self, text):
        sc1 = parse_scenario(text)
        sc2 = parse_scenario(render_scenario(sc1))
        assert sc2.protocol == sc1.protocol
        np.testing.assert_array_equal(sc2.x0, sc1.x0)
        assert sc2.dt == sc1.dt
        assert sc2.t_max == sc1.t_max
        assert sc2.agree_tol == sc1.agree_tol
        assert sc2.record_every == sc1.record_every
        assert sc2.schedule == sc1.schedule
        assert sc2.topology == sc1.topology
        assert set(sc2.topologies) == set(sc1.topologies)
        for name in sc1.topologies:
            np.testing.assert_array_equal(
                sc2.topologies[name].weights, sc1.topologies[name].weights
            )
