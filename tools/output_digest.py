"""Digest of what the CLI prints and writes on the benchmark's seed-1 inputs.

    python3 tools/output_digest.py [--src DIR] [--verbose]

The seed-1 scenario files of the spectral-mid and sparse-large workloads
are generated with DIR/perfbench/workloads.py into a temporary directory,
and so are the scenarios that fuzz-small integrates for its six seed-1
"tiny" cases. Then ten families run in this process, on ftagree
imported from DIR/src:

  bounds     ``bounds`` on each of the 60 spectral-mid files
  spectral   ``spectral`` on the same 60 files
  simulate   ``simulate --out --report`` on each of the 24 sparse-large files
  sparse-batch  the same 24 sparse-large scenarios in one ``integrate_batch``
             call, hashed as in ``batch``: with about 2,900 edges a run's
             V1 and V2 columns span several blocks of rows
  repro      ``repro --outdir``
  fuzz       ``simulate --out --report`` on each fuzz-small scenario: P1 and
             P2 on the case's first topology, and P2 on its cyclic A, B, C
             schedule where it has three
  batch      the same fuzz-small scenarios in one ``integrate_batch`` call:
             each trajectory's columns, status, converged_at and final_value
  errors     the faulty scenarios of ERROR_CASES, each under its command,
             and two valid controls: what the CLI prints on a fault
  graph      each topology of the 60 spectral-mid files, through the public
             API: n, i, j, w, weights, laplacian, the edge arrays of
             exponent_transform(t, 0.5), and is_connected
  reconstruct  reconstruct_paper_graph on the published targets and on
             seeded planted graphs (n = 3..7, integer states): each
             candidate's n, i, j and w, in the order returned

One sha256 is printed per family. It covers every exit code, stdout,
stderr and written file, so two checkouts print the same digest for a
family exactly when that family's output is byte-identical. --verbose
adds one line per run and per written file, to find what differs.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load(src: Path):
    """ftagree from src/src, checked, and the workloads module of
    src/perfbench."""
    package = src / "src" / "ftagree"
    if not package.is_dir():
        sys.exit(f"error: no ftagree package at {package}")
    sys.path.insert(0, str(src / "src"))
    import ftagree
    import ftagree.cli

    if Path(ftagree.__file__).resolve().parent != package:
        sys.exit(f"error: ftagree was imported from {ftagree.__file__}, not from {package}")
    spec = importlib.util.spec_from_file_location("workloads", src / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return ftagree, workloads


def error_text(edges="edge 0 1 1\nedge 1 2 1", **keys) -> str:
    """A three-agent P2 scenario on one topology G, with keys replaced,
    added, or left out where their value is None."""
    keys = {"protocol": "p2", "alpha": "0.5", "x0": "[0, 1, 2]", "t_max": "5", **keys}
    lines = [f"{k} = {v}" for k, v in keys.items() if v is not None]
    return "\n".join(lines + ["[topology.G]", edges, ""])


# (label, command, scenario text): one fault each, but for the controls.
ERROR_CASES = [
    ("control-bounds", "bounds", error_text()),
    ("control-simulate", "simulate", error_text()),
    ("self-loop", "bounds", error_text("edge 0 1 1\nedge 1 1 1")),
    ("index-out-of-range", "bounds", error_text("edge 0 1 1\nedge 1 5 1")),
    ("duplicate-edge", "bounds", error_text("edge 0 1 1\nedge 1 2 1\nedge 1 0 2")),
    ("negative-weight", "bounds", error_text("edge 0 1 1\nedge 1 2 -1")),
    ("non-finite-weight", "bounds", error_text("edge 0 1 1\nedge 1 2 inf")),
    ("p2-alpha-1.5", "simulate", error_text(alpha="1.5")),
    ("linear-alpha-0.5", "simulate", error_text(protocol="linear")),
    ("unknown-protocol", "simulate", error_text(protocol="p3")),
    ("disconnected", "bounds", error_text("edge 0 1 1")),
    ("one-agent", "bounds", error_text("", x0="[1]")),
    ("linear-bounds", "bounds", error_text(protocol="linear", alpha=None)),
    ("linear-dt-10", "simulate",
     error_text(protocol="linear", alpha=None, dt="10", t_max="1000")),
    ("lyapunov-overflow", "simulate",
     error_text("edge 0 1 1e300", alpha="0.01", x0="[0, 1]", dt="0.01", t_max="0.2",
                agree_tol="1e-3", record_every="3")),
    ("lambda2-unresolved", "bounds", error_text("edge 0 1 1e-300", x0="[0, 1]")),
    ("degree-overflow", "spectral", error_text("edge 0 1 1e308\nedge 0 2 1e308")),
    ("syntax-error", "bounds", error_text(x0="0, 1, 2")),
    ("missing-x0", "bounds", error_text(x0=None)),
]


def fuzz_texts(ft, workloads):
    """(label, scenario text) of each run that FuzzSmall.op integrates on
    the seed-1 "tiny" cases, with t_max from the case's own closed forms."""
    fuzz = workloads.FuzzSmall()
    for k, c in enumerate(fuzz.generate(1, "tiny")):
        edges = [(top.i, top.j, top.w) for top in (ft.Topology(c.x0.size, w) for w in c.weights)]
        fixed = {"G1": edges[0]}
        runs = [("p1", "p1", c.t1, fixed, None), ("p2", "p2", c.t2, fixed, None)]
        if len(edges) == 3:
            runs.append(("switching", "p2", c.t3, dict(zip("ABC", edges)), 0.25))
        for name, protocol, bound, graphs, dwell in runs:
            yield f"case{k}-{name}", workloads.scenario_text(
                protocol, c.alpha, c.x0, fuzz.dt, 1.1 * bound + 1.0, c.tol, graphs, dwell)


def graph_bytes(ft, t) -> bytes:
    """A Topology's edge arrays, its dense forms, its transform at
    alpha = 0.5 and its connectedness, each array with dtype and shape."""
    b = ft.exponent_transform(t, 0.5)
    arrays = (t.i, t.j, t.w, t.weights, ft.laplacian(t), b.i, b.j, b.w)
    head = repr((t.n, b.n, ft.is_connected(t))).encode()
    return head + b"".join(f"{a.dtype}{a.shape}".encode() + a.tobytes() for a in arrays)


def reconstruct_cases(ft):
    """(label, x0, V1 target, lambda2(L_B) target) of the published search,
    and of three seeded planted graphs per n = 3..7: weight 2 on the path
    0-1-...-(n-1) and on each other pair with probability 1/2, over states
    drawn from the integers -20..20, with the planted graph's own targets."""
    yield "published", [-5.0, -3.0, 7.0, 9.0, 4.0, 5.0], 338.0, 1.0409
    rng = np.random.default_rng(1)
    for n in range(3, 8):
        for k in range(3):
            x0 = rng.integers(-20, 21, n).astype(float)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            keep = rng.random(len(pairs)) < 0.5
            planted = ft.topology_new(
                n, [(i, j, 2.0) for (i, j), kept in zip(pairs, keep) if kept or j == i + 1])
            lam2b = ft.algebraic_connectivity(ft.exponent_transform(planted, 0.5))
            yield f"n{n}-{k}", x0, ft.v1(planted, x0), lam2b


def candidates_bytes(candidates) -> bytes:
    """The count of candidates, then each one's n and its edge arrays."""
    parts = [repr(len(candidates)).encode()]
    for c in candidates:
        parts.append(repr(c.n).encode())
        parts += [f"{a.dtype}{a.shape}".encode() + a.tobytes() for a in (c.i, c.j, c.w)]
    return b"".join(parts)


def trajectory_bytes(traj) -> bytes:
    """A trajectory's raw columns, then its status, converged_at and final_value."""
    columns = (traj.t, traj.x, traj.v1, traj.v2, traj.spread, traj.sum)
    outcome = repr((traj.status, traj.converged_at, traj.final_value))
    return b"".join(c.tobytes() for c in columns) + outcome.encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Family:
    """Hashes of one family's pieces, in the order they were made."""

    def __init__(self, name: str, tmp: Path):
        self.name, self.tmp, self.lines = name, tmp, []

    def add(self, label: str, data: bytes) -> None:
        self.lines.append(f"{self.name} {label} {digest(data)}")

    def run(self, run_cli, label: str, argv: list, written=()) -> None:
        """One CLI call: its exit code and streams, then each file it wrote."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        # A message that names a path names it inside this run's directory.
        streams = f"exit {code}\n{out.getvalue()}\0{err.getvalue()}"
        self.add(label, streams.replace(str(self.tmp), "<tmp>").encode())
        for path in written:
            self.add(Path(path).relative_to(self.tmp).as_posix(), Path(path).read_bytes())

    def total(self) -> str:
        return digest("\n".join(self.lines).encode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ and perfbench/ to run (default: this one)")
    parser.add_argument("--verbose", action="store_true", help="one line per run and file")
    args = parser.parse_args(argv)
    ft, workloads = load(args.src.resolve())
    run_cli = ft.cli.run_cli
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name).resolve()
        names = ("bounds", "spectral", "simulate", "sparse-batch", "repro", "fuzz", "batch",
                 "errors", "graph", "reconstruct")
        families = {f: Family(f, tmp) for f in names}
        (tmp / "spectral").mkdir()
        for case in workloads.SpectralMid().generate(1, "full", tmp / "spectral"):
            for command in ("bounds", "spectral"):
                families[command].run(run_cli, Path(case.path).name, [command, case.path])
            sc = ft.parse_scenario(Path(case.path).read_text(encoding="utf-8"))
            for top_name, t in sc.topologies.items():
                families["graph"].add(f"{Path(case.path).name}:{top_name}", graph_bytes(ft, t))
        (tmp / "sparse").mkdir()
        sparse = []
        for case in workloads.SparseLarge().generate(1, "full", tmp / "sparse"):
            for scn, csv, report in case.files.values():
                argv = ["simulate", scn, "--out", csv, "--report", report]
                families["simulate"].run(run_cli, Path(scn).name, argv, (csv, report))
                sparse.append(Path(scn))
        scenarios = [ft.parse_scenario(scn.read_text(encoding="utf-8")) for scn in sparse]
        for scn, traj in zip(sparse, ft.integrate_batch(scenarios)):
            families["sparse-batch"].add(scn.name, trajectory_bytes(traj))
        outdir = tmp / "repro"
        families["repro"].run(run_cli, "repro", ["repro", "--outdir", str(outdir)])
        for path in sorted(outdir.iterdir()):
            families["repro"].add(path.relative_to(tmp).as_posix(), path.read_bytes())
        (tmp / "fuzz").mkdir()
        texts = list(fuzz_texts(ft, workloads))
        for label, text in texts:
            base = tmp / "fuzz" / label
            scn, csv, report = (base.with_suffix(ext) for ext in (".scn", ".csv", ".json"))
            scn.write_text(text, encoding="utf-8")
            argv = ["simulate", str(scn), "--out", str(csv), "--report", str(report)]
            families["fuzz"].run(run_cli, scn.name, argv, (csv, report))
        trajectories = ft.integrate_batch([ft.parse_scenario(text) for _, text in texts])
        for (label, _), traj in zip(texts, trajectories):
            families["batch"].add(label, trajectory_bytes(traj))
        (tmp / "errors").mkdir()
        for label, command, text in ERROR_CASES:
            scn = tmp / "errors" / f"{label}.scn"
            scn.write_text(text, encoding="utf-8")
            families["errors"].run(run_cli, scn.name, [command, str(scn)])
        for label, x0, v1_target, lam2b in reconstruct_cases(ft):
            found = ft.reconstruct_paper_graph(x0, v1_target, lam2b, 0.5)
            families["reconstruct"].add(label, candidates_bytes(found))
    for family in families.values():
        if args.verbose:
            print("\n".join(family.lines))
        print(f"{family.name} {family.total()} ({len(family.lines)} pieces)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
