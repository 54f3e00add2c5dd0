import contextlib
import csv
import io
import json
import math
import re
import runpy
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftagree import (
    algebraic_connectivity,
    exponent_transform,
    parse_scenario,
    scenario_bounds,
    t3_bound,
)
from ftagree import cli
from ftagree.cli import run_cli
from ftagree.repro import run_repro

TWO_AGENT = """\
protocol = p2
alpha = 0.5
x0 = [0, 1]
dt = 1e-4
t_max = 3

[topology.G]
edge 0 1 1
"""

# The path P3 (transformed connectivity 1) is scheduled after the base K3 (3).
K3_P3_K3 = """\
protocol = p2
alpha = 0.5
x0 = [0, 1, 2]
dt = 1e-3
schedule = K:0.25, P:0.25, K:0.25 cyclic

[topology.K]
edge 0 1 1
edge 1 2 1
edge 0 2 1

[topology.P]
edge 0 1 1
edge 1 2 1
"""

DISCONNECTED = """\
protocol = p2
alpha = 0.5
x0 = [0, 1, 2, 3]

[topology.G]
edge 0 1 1
edge 2 3 1
"""


@pytest.fixture
def two_agent_file(tmp_path):
    p = tmp_path / "two_agent.scn"
    p.write_text(TWO_AGENT)
    return p


class TestBoundsCommand:
    def test_two_agent_values(self):
        report = scenario_bounds(parse_scenario(TWO_AGENT))
        assert report.v1_0 == pytest.approx(0.5)
        # V2 = half the squared disagreement norm: 0.5 * (0.25 + 0.25)
        assert report.v2_0 == pytest.approx(0.25)
        assert report.lambda2_A == pytest.approx(2.0, abs=1e-10)
        assert report.lambda2_B == pytest.approx(2.0, abs=1e-10)
        assert report.t2 == pytest.approx(1.1892071, abs=1e-6)
        assert report.t3 == report.t2  # single topology

    def test_switching_uses_lambda_min(self):
        text = """\
protocol = p2
alpha = 0.5
x0 = [0, 1, 2]
dt = 1e-3
schedule = A:0.25, B:0.25 cyclic

[topology.A]
edge 0 1 1
edge 1 2 1

[topology.B]
edge 0 1 1
edge 1 2 1
edge 0 2 1
"""
        report = scenario_bounds(parse_scenario(text))
        # A, the path P3, has the smaller transformed connectivity (1 against
        # 3 for the triangle B) and is also the base phase, so t3 equals t2.
        assert report.t3 == pytest.approx(report.t2, rel=1e-12)

    def test_t3_takes_the_minimum_from_a_later_phase(self):
        sc = parse_scenario(K3_P3_K3)
        report = scenario_bounds(sc)
        lam_min = algebraic_connectivity(exponent_transform(sc.topologies["P"], 0.5))
        assert lam_min == pytest.approx(1.0, abs=1e-12)
        assert report.lambda2_B == pytest.approx(3.0, abs=1e-12)  # the base, K3
        assert report.lambda_min == lam_min
        assert report.t3 == t3_bound(report.v2_0, lam_min, 0.5)
        assert report.t3 > report.t2


class TestCli:
    def test_bounds_exit_and_output(self, two_agent_file, capsys):
        code = run_cli(["bounds", str(two_agent_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "v1_0 = 0.5",
            "v2_0 = 0.25",
            "lambda2_A = 2.0",
            "lambda2_B = 2.0",
            "lambda_min = 2.0",
            "t1 = 1.189207115002721",
            "t2 = 1.189207115002721",
            "t3 = 1.189207115002721",
            "t1_limit_alpha0 = 0.7071067811865476",
            "alpha = 0.5",
        ]

    def test_bounds_output_switching(self, tmp_path, capsys):
        p = tmp_path / "k3_p3_k3.scn"
        p.write_text(K3_P3_K3)
        assert run_cli(["bounds", str(p)]) == 0
        # lambda_min comes from P, the later phase; lambda2_B from the base K.
        assert capsys.readouterr().out.splitlines() == [
            "v1_0 = 3.0",
            "v2_0 = 1.0",
            "lambda2_A = 3.0",
            "lambda2_B = 3.0",
            "lambda_min = 0.9999999999999998",
            "t1 = 1.3731780959380784",
            "t2 = 1.2408064788027993",
            "t3 = 2.8284271247461903",
            "t1_limit_alpha0 = 1.4142135623730951",
            "alpha = 0.5",
        ]

    def test_simulate_bad_alpha(self, tmp_path, capsys):
        p = tmp_path / "bad.scn"
        p.write_text(TWO_AGENT.replace("alpha = 0.5", "alpha = 1.5"))
        code = run_cli(["simulate", str(p)])
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_missing_file(self, capsys):
        assert run_cli(["simulate", "/nonexistent.scn"]) == 2

    def test_disconnected_bounds(self, tmp_path, capsys):
        p = tmp_path / "disc.scn"
        p.write_text(DISCONNECTED)
        assert run_cli(["bounds", str(p)]) == 3

    def test_out_of_memory_exits_2_with_one_line(self, two_agent_file, capsys, monkeypatch):
        def no_memory(sc):
            raise MemoryError

        monkeypatch.setattr(cli, "integrate", no_memory)
        assert run_cli(["simulate", str(two_agent_file)]) == 2
        assert capsys.readouterr().err == "error: out of memory in simulate\n"

    def test_simulate_timeout(self, tmp_path, capsys):
        p = tmp_path / "short.scn"
        p.write_text(TWO_AGENT.replace("t_max = 3", "t_max = 0.125"))
        assert run_cli(["simulate", str(p)]) == 4

    def test_simulate_csv_and_report(self, two_agent_file, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        out_json = tmp_path / "run.json"
        code = run_cli(
            [
                "simulate",
                str(two_agent_file),
                "--out",
                str(out_csv),
                "--report",
                str(out_json),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Converged" in stdout

        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2", "V1", "V2", "spread", "sum"]
        ts = [float(r[0]) for r in rows[1:]]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        # snapped final sample has zero spread
        assert float(rows[-1][5]) == 0.0

        summary = json.loads(out_json.read_text())
        assert summary["status"] == "Converged"
        assert abs(summary["converged_at"] - 1.0) < 5e-3

    def test_csv_round_trip_9_digits(self, two_agent_file, tmp_path):
        out_csv = tmp_path / "traj.csv"
        run_cli(["simulate", str(two_agent_file), "--out", str(out_csv)])
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        # values reparse to 9 significant digits of the formatted number
        for row in rows[1:]:
            for cell in row:
                val = float(cell)
                assert f"{val:.9g}" == cell

    def test_spectral(self, two_agent_file, capsys):
        code = run_cli(["spectral", str(two_agent_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "G:" in out
        assert "2" in out

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frob"]) == 2


class TestRepro:
    def test_repro_cli(self, tmp_path, capsys, monkeypatch):
        results = []

        def kept_repro():
            results.append(run_repro())
            return results[-1]

        monkeypatch.setattr(cli, "run_repro", kept_repro)
        outdir = tmp_path / "repro"
        code = run_cli(["repro", "--outdir", str(outdir)])
        out = capsys.readouterr().out
        assert code == 0
        quantities = [
            "kappa", "V1(0)", "V2(0)", "lambda2(L_B)", "t1", "t2", "t3",
            "alpha0_hitting_time_reference",
        ]
        assert out.splitlines() == [
            "quantity                               paper      computed   abs_error",
            "kappa                                 2.8333      2.833333    3.33e-05",
            "V1(0)                               338.0000    338.000000           0",
            "V2(0)                                78.4167     78.416667    3.33e-05",
            "lambda2(L_B)                          1.0409      1.040932    3.17e-05",
            "t1                                   11.7681     11.768400      0.0003",
            "t2                                    8.1673      8.167522    0.000222",
            "t3                                   11.3000     11.299982     1.8e-05",
            "alpha0_hitting_time_reference         7.0000      7.000000           0",
            "reconstructed candidates: 3",
            "lambda_min over schedule: 0.675190",
            "p1: Converged at 4.88",
            "p2: Converged at 4.132",
            "switching: Converged at 1.458",
        ]
        report = json.loads((outdir / "report.json").read_text())
        assert [row["quantity"] for row in report] == quantities
        by_name = {row["quantity"]: row for row in report}
        assert set(by_name["kappa"]) == {
            "quantity",
            "paper_value",
            "computed_value",
            "abs_error",
            "note",
        }
        for row in report:
            assert row["abs_error"] == pytest.approx(
                abs(row["paper_value"] - row["computed_value"]), abs=1e-15
            )
        (result,) = results
        for name, traj in (
            ("protocol1.csv", result.traj_p1),
            ("protocol2.csv", result.traj_p2),
            ("switching.csv", result.traj_switching),
        ):
            rows = (outdir / name).read_text().splitlines()
            assert len(rows) == 1 + len(traj.t)


@pytest.mark.parametrize("command", ["simulate", "bounds", "spectral"])
def test_byte_order_mark_is_accepted(tmp_path, capsys, command):
    plain, marked = tmp_path / "plain.scn", tmp_path / "marked.scn"
    plain.write_bytes(TWO_AGENT.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + TWO_AGENT.encode())
    assert run_cli([command, str(plain)]) == 0
    expected = capsys.readouterr().out
    assert run_cli([command, str(marked)]) == 0
    assert capsys.readouterr().out == expected


def test_python_m_ftagree_help(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ftagree", "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("ftagree", run_name="__main__")
    assert exc.value.code == 0
    assert "usage: ftagree" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "bounds", "spectral"])
def test_non_utf8_file_exits_2(tmp_path, capsys, command):
    p = tmp_path / "binary.scn"
    p.write_bytes(b"\xff\xfe")
    assert run_cli([command, str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["simulate", "bounds", "spectral"])
@pytest.mark.parametrize(
    "edits, named",
    [
        ({"t_max = 3": "t_max = inf"}, "t_max"),
        ({"dt = 1e-4": "dt = nan"}, "dt"),
        ({"t_max = 3": "t_max = 3\nagree_tol = nan"}, "agree_tol"),
        ({"edge 0 1 1": "edge 0 1 inf"}, "weights must be finite"),
        ({"edge 0 1 1": "edge 0 1 nan"}, "weights must be finite"),
        ({"t_max = 3": "t_max = 3\nrecord_every = 2.7"}, "record_every"),
        ({"[0, 1]": "[1e308, 1e308]"}, "sum(x0)"),
        ({"[0, 1]": "[1e308, -1e308, 0]", "edge 0 1 1": "edge 0 1 1\nedge 1 2 1"}, "V2(0)"),
        ({"[0, 1]": "[0, 1e10]", "edge 0 1 1": "edge 0 1 1e300"}, "V1(0)"),
        ({"[0, 1]": "[0, 1, 2]", "edge 0 1 1": "edge 0 1 1e308\nedge 0 2 1e308"},
         "degree sums must be finite"),
        # V1(0) is 5e307 and accepted; the spectrum [0, 2e308] and the run overflow.
        ({"edge 0 1 1": "edge 0 1 1e308"}, "non-finite"),
        # The first bad edge in list order is named, a non-finite weight too.
        ({"[0, 1]": "[0, 1, 2]", "edge 0 1 1": "edge 0 1 nan\nedge 2 2 1"}, "edge (0,1)"),
    ],
    ids=[
        "t_max-inf", "dt-nan", "agree_tol-nan", "weight-inf", "weight-nan", "record_every-2.7",
        "sum-overflow", "v2-overflow", "v1-overflow", "degree-overflow", "spectrum-overflow",
        "nan-before-self-loop",
    ],
)
def test_non_finite_or_non_integer_input_exits_2(tmp_path, capsys, command, edits, named):
    text = TWO_AGENT
    for old, new in edits.items():
        text = text.replace(old, new)
    p = tmp_path / "bad.scn"
    p.write_text(text)
    assert run_cli([command, str(p)]) == 2
    assert named in capsys.readouterr().err


# P1 with alpha 0.99 on the path 0-1-2, every edge of weight W.
TINY_WEIGHTS = """\
protocol = p1
alpha = 0.99
x0 = [0, 1, 3]

[topology.G]
edge 0 1 W
edge 1 2 W
"""

# The state stays finite, but V1 = w d^2 / 2 overflows from t = 0.03 on.
HUGE_WEIGHT = """\
protocol = p2
alpha = 0.01
x0 = [0, 1]
dt = 0.01
t_max = 0.2
agree_tol = 1e-3
record_every = 3

[topology.G]
edge 0 1 1e300
"""


@pytest.mark.parametrize(
    "command, text, named",
    [
        ("bounds", TINY_WEIGHTS.replace("W", "1e-310"), "does not fit in a double"),
        ("bounds", TINY_WEIGHTS.replace("W", "5e-324"), "does not fit in a double"),
        ("simulate", HUGE_WEIGHT, "V1, V2 or the state sum is not finite at t=0.03"),
    ],
    ids=["bound-overflows", "bound-rate-underflows", "v1-overflows"],
)
def test_overflow_past_the_scenario_checks_exits_2(tmp_path, capsys, command, text, named):
    p = tmp_path / "s.scn"
    p.write_text(text)
    assert run_cli([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


# A triangle of weight 4e307: lam2 = 1.2e308, so K1 = (2 lam2)**p and
# K2 = 2**alpha lam2B**p overflow a double, but t1 and t2 are tiny.
HUGE_TRIANGLE = """\
protocol = p1
alpha = 0.9999999
x0 = [0, 1e-3, 2e-3]

[topology.G]
edge 0 1 4e307
edge 1 2 4e307
edge 0 2 4e307
"""


def test_bounds_past_an_overflowing_decay_constant(tmp_path, capsys):
    path = tmp_path / "s.scn"
    path.write_text(HUGE_TRIANGLE)
    assert run_cli(["bounds", str(path)]) == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    r = scenario_bounds(parse_scenario(HUGE_TRIANGLE))
    # t1 ~ 8e-302 must print as itself, not as 0.000000.
    assert float(printed["t1"]) == r.t1
    a = r.alpha
    q, p = (1.0 - a) / 2.0, (1.0 + a) / 2.0
    # The settling time v**q/(q K), with K split so that no factor overflows.
    assert r.t1 == pytest.approx(r.v1_0 ** q / q / 2.0 ** p / r.lambda2_A ** p, rel=1e-12)
    assert r.t2 == pytest.approx(r.v2_0 ** q / q / 2.0 ** a / r.lambda2_B ** p, rel=1e-12)
    assert 0.0 < r.t1 < 1e-300 and 0.0 < r.t2 < 1e-300


# Connected topologies whose lam2 comes out as 0: the transform of the
# weight 1e-300 underflows, and 1e-200 lies far below eigvalsh's
# resolution of the 1e200 edge.
@pytest.mark.parametrize(
    "text, laplacian",
    [
        (TWO_AGENT.replace("edge 0 1 1", "edge 0 1 1e-300"), "L_B"),
        (TWO_AGENT.replace("x0 = [0, 1]", "x0 = [0, 1, 2]")
         .replace("edge 0 1 1", "edge 0 1 1e200\nedge 1 2 1e-200"), "L_A"),
    ],
    ids=["transformed-weight-underflows", "graded-weights"],
)
def test_connected_topology_with_unresolved_lambda2_exits_2(tmp_path, capsys, text, laplacian):
    p = tmp_path / "s.scn"
    p.write_text(text)
    assert run_cli(["bounds", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: topology 'G' is connected")
    assert f"lambda2 of its {laplacian} comes out as 0.0" in err


def test_readme_scenario_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    p = tmp_path / "readme.scn"
    p.write_text(block)
    for command in ("bounds", "spectral", "simulate"):
        assert run_cli([command, str(p)]) == 0
    out = capsys.readouterr().out
    assert "status = Converged\nconverged_at = 3.124\n" in out


def test_simulate_prints_converged_at_as_its_report_does(tmp_path, capsys):
    # At dt 1e-7 agreement comes at 0.0009991; six decimals printed 0.000999.
    p = tmp_path / "tiny.scn"
    p.write_text(TWO_AGENT.replace("x0 = [0, 1]", "x0 = [0, 1e-6]")
                 .replace("dt = 1e-4", "dt = 1e-7\nagree_tol = 1e-12"))
    report = tmp_path / "report.json"
    assert run_cli(["simulate", str(p), "--report", str(report)]) == 0
    assert "converged_at = 0.0009991\n" in capsys.readouterr().out
    assert json.loads(report.read_text())["converged_at"] == 0.0009991


def test_single_agent(tmp_path, capsys):
    p = tmp_path / "one.scn"
    p.write_text("protocol = p2\nalpha = 0.5\nx0 = [3]\n\n[topology.G]\n")
    assert run_cli(["bounds", str(p)]) == 2
    assert capsys.readouterr().err == "error: time bounds need at least two agents\n"
    assert run_cli(["spectral", str(p)]) == 0
    assert capsys.readouterr().out == "G: [0] (residual 0)\n"
    assert run_cli(["simulate", str(p)]) == 0
    assert "status = Converged\nconverged_at = 0\n" in capsys.readouterr().out


def test_spectrum_of_a_weight_whose_square_overflows(tmp_path, capsys):
    # 1e160 squared overflows a double; an unscaled Jacobi solve printed the
    # diagonal [1e160, 1e160]. The power-of-two scaling around the solve is
    # what this guards (LAPACK also rescales such a matrix, so
    # test_power_of_two_scaling_is_exact pins the scaling bit for bit).
    p = tmp_path / "huge.scn"
    p.write_text(TWO_AGENT.replace("edge 0 1 1", "edge 0 1 1e160"))
    assert run_cli(["spectral", str(p)]) == 0
    low, high, _residual = printed_numbers(capsys.readouterr().out)
    assert abs(low) <= 1e-12 * 2e160
    assert high == pytest.approx(2e160, rel=1e-12)
    lam2 = algebraic_connectivity(parse_scenario(p.read_text()).topologies["G"])
    assert lam2 == pytest.approx(2e160, rel=1e-12)


# A broken field takes one of these values. 1e308 is left out of t_max:
# with a large dt it is a valid run of about 1e307 steps.
BAD = ["0", "-1", "nan", "inf", "-inf", "1e308", "2.7", "x"]
MALFORMED = ["edge 0", "[topology.", "x0 = [1,", "= 3", "frob = 1", "edge a b 1", "alpha = 1"]
# Valid weights reach over- and underflow in the bounds and the run.
WEIGHTS = ["1", "1e-30", "1e-310", "5e-324", "1e300"]
BAD_REFERENCES = ["topology = H", "schedule = G:0.05, Z:0.05", "", "topology = G\nschedule = G:1"]
FIELDS = [
    "protocol", "alpha", "x0", "dt", "t_max", "agree_tol", "record_every",
    "weight", "dwell", "reference", "syntax",
]


@st.composite
def scenario_texts(draw):
    """Scenario text from the grammar, with up to two fields broken."""
    broken = draw(st.sets(st.sampled_from(FIELDS), max_size=2))

    def value(field, good, bad=BAD):
        return draw(st.sampled_from(bad)) if field in broken else good

    n = draw(st.integers(1, 4))
    protocol = draw(st.sampled_from(["p1", "p2"]))
    alpha = draw(st.sampled_from(["0.5", "0.01", "0.99"]))
    # A non-cyclic schedule must outlast t_max = 0.2; G:0.05, H:0.3 does.
    tail = draw(st.sampled_from(["0.03 cyclic", "0.03", "0.3"]))
    schedule = f"schedule = G:{value('dwell', '0.05')}, H:{tail}"
    reference = draw(st.sampled_from(["topology = G", schedule]))
    lines = [
        f"protocol = {value('protocol', protocol, ['linear', 'p3'])}",
        f"alpha = {value('alpha', alpha)}",
        "x0 = [" + ", ".join(value("x0", str(i)) for i in range(n)) + "]",
        f"dt = {value('dt', '0.01')}",
        f"t_max = {value('t_max', '0.2', [b for b in BAD if b != '1e308'])}",
        f"agree_tol = {value('agree_tol', '1e-3')}",
        f"record_every = {value('record_every', '3')}",
        value("reference", reference, BAD_REFERENCES),
    ]
    for name in ("G", "H"):
        lines.append(f"[topology.{name}]")
        lines += [f"edge {i} {i + 1} {value('weight', draw(st.sampled_from(WEIGHTS)))}"
                  for i in range(n - 1)]
    if "syntax" in broken:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED)))
    return "\n".join(lines) + "\n"


def printed_numbers(out):
    """Every token of the output that parses as a float, inf and nan included."""
    numbers = []
    for token in re.split(r"[\s,=:\[\]()]+", out):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=scenario_texts())
def test_any_scenario_text_ends_in_a_documented_exit_code(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("fuzz") / "s.scn"
    p.write_text(text)
    for command in ("bounds", "spectral", "simulate"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_cli([command, str(p)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert all(map(math.isfinite, printed_numbers(out.getvalue()))), out.getvalue()
