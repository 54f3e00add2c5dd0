"""Digest of what the CLI prints and writes on the benchmark's seed-1 inputs.

    python3 tools/output_digest.py [--src DIR] [--verbose]

The seed-1 scenario files of the spectral-mid and sparse-large workloads
are generated with DIR/perfbench/workloads.py into a temporary directory,
and so are the scenarios that fuzz-small integrates for its six seed-1
"tiny" cases. Then six families run in this process, on ftagree
imported from DIR/src:

  bounds     ``bounds`` on each of the 60 spectral-mid files
  spectral   ``spectral`` on the same 60 files
  simulate   ``simulate --out --report`` on each of the 24 sparse-large files
  repro      ``repro --outdir``
  fuzz       ``simulate --out --report`` on each fuzz-small scenario: P1 and
             P2 on the case's first topology, and P2 on its cyclic A, B, C
             schedule where it has three
  batch      the same fuzz-small scenarios in one ``integrate_batch`` call:
             each trajectory's columns, status, converged_at and final_value

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
        names = ("bounds", "spectral", "simulate", "repro", "fuzz", "batch")
        families = {f: Family(f, tmp) for f in names}
        (tmp / "spectral").mkdir()
        for case in workloads.SpectralMid().generate(1, "full", tmp / "spectral"):
            for command in ("bounds", "spectral"):
                families[command].run(run_cli, Path(case.path).name, [command, case.path])
        (tmp / "sparse").mkdir()
        for case in workloads.SparseLarge().generate(1, "full", tmp / "sparse"):
            for scn, csv, report in case.files.values():
                argv = ["simulate", scn, "--out", csv, "--report", report]
                families["simulate"].run(run_cli, Path(scn).name, argv, (csv, report))
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
            columns = (traj.t, traj.x, traj.v1, traj.v2, traj.spread, traj.sum)
            outcome = repr((traj.status, traj.converged_at, traj.final_value))
            families["batch"].add(label, b"".join(c.tobytes() for c in columns) + outcome.encode())
    for family in families.values():
        if args.verbose:
            print("\n".join(family.lines))
        print(f"{family.name} {family.total()} ({len(family.lines)} pieces)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
