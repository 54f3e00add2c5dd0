"""Command-line surface.

Subcommands:
  simulate <file> [--out traj.csv] [--report report.json]
  bounds <file>
  spectral <file>
  repro [--outdir DIR]

Exit codes: 0 success, 2 config/parse error, 3 disconnected topology
where a bound was requested, 4 simulation timed out before agreement.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bounds import scenario_bounds
from .engine import Scenario, integrate
from .errors import DisconnectedTopology, FtagreeError
from .graph import laplacian
from .output import write_trajectory_csv
from .repro import run_repro
from .scenario import parse_scenario
from .spectral import eigenvalues_symmetric

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DISCONNECTED = 3
EXIT_TIMEOUT = 4


def _read_scenario(path: str) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _cmd_simulate(args) -> int:
    sc = _read_scenario(args.file)
    traj = integrate(sc)
    if args.out:
        write_trajectory_csv(traj, args.out)
    if args.report:
        summary = {
            "status": traj.status,
            "converged_at": traj.converged_at,
            "final_value": traj.final_value,
            "samples": len(traj.t),
        }
        Path(args.report).write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    print(f"status = {traj.status}")
    if traj.converged_at is not None:
        print(f"converged_at = {traj.converged_at:.6f}")
        print(f"final_value = {traj.final_value:.9g}")
    if traj.status != "Converged":
        print("simulation timed out before agreement", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


def _cmd_bounds(args) -> int:
    sc = _read_scenario(args.file)
    report = scenario_bounds(sc)
    for key, value in dataclasses.asdict(report).items():
        print(f"{key} = {value:.6f}")
    return EXIT_OK


def _cmd_spectral(args) -> int:
    sc = _read_scenario(args.file)
    for name in sorted(sc.topologies):
        spec = eigenvalues_symmetric(laplacian(sc.topologies[name]))
        vals = ", ".join(f"{v:.9g}" for v in spec.eigenvalues)
        print(f"{name}: [{vals}] (residual {spec.residual:.3g})")
    return EXIT_OK


def _cmd_repro(args) -> int:
    result = run_repro()
    rows = [dataclasses.asdict(r) for r in result.reports]
    print(f"{'quantity':<32}{'paper':>12}{'computed':>14}{'abs_error':>12}")
    for r in result.reports:
        print(
            f"{r.quantity:<32}{r.paper_value:>12.4f}{r.computed_value:>14.6f}"
            f"{r.abs_error:>12.3g}"
        )
    print(f"reconstructed candidates: {len(result.candidates)}")
    print(f"lambda_min over schedule: {result.lambda_min:.6f}")
    runs = [
        ("p1", "protocol1.csv", result.traj_p1),
        ("p2", "protocol2.csv", result.traj_p2),
        ("switching", "switching.csv", result.traj_switching),
    ]
    for label, _, traj in runs:
        print(f"{label}: {traj.status} at {traj.converged_at}")
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(
            json.dumps(rows, indent=2) + "\n", encoding="utf-8"
        )
        for _, name, traj in runs:
            write_trajectory_csv(traj, outdir / name)
    if any(traj.status != "Converged" for _, _, traj in runs):
        return EXIT_TIMEOUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftagree", description="Finite-time agreement simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a scenario file")
    p_sim.add_argument("file")
    p_sim.add_argument("--out", help="trajectory CSV destination")
    p_sim.add_argument("--report", help="run-summary JSON destination")
    p_sim.set_defaults(func=_cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="closed-form convergence bounds")
    p_bounds.add_argument("file")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_spec = sub.add_parser("spectral", help="Laplacian eigenvalues per topology")
    p_spec.add_argument("file")
    p_spec.set_defaults(func=_cmd_spectral)

    p_repro = sub.add_parser(
        "repro", help="reproduce the published six-agent example"
    )
    p_repro.add_argument("--outdir", help="directory for CSVs and report.json")
    p_repro.set_defaults(func=_cmd_repro)
    return parser


# Parsing leaves the parser unchanged, so every call shares this one.
_PARSER = build_parser()


def run_cli(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except DisconnectedTopology as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (FtagreeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    entry()
