"""Seeded inputs, operations and correctness oracles of the four workloads.

Every workload object has the same surface:

- ``generate(seed, size, workdir)`` makes the benchmark's own input data
  from the seed (and, for the CLI workloads, writes the scenario files
  into ``workdir``).  Nothing here is timed.
- ``build(cases)`` constructs the program objects the operations need.
  This is the part of set-up that ``setup_s`` counts.
- ``op(item)`` is one unit of user work: calls into ``ftagree`` only.
- ``check(case, result)`` is the oracle: ``None`` when the result is
  correct, otherwise a one-line reason.  Oracles recompute what they can
  independently with numpy instead of trusting the program.
- ``tightness(case, result)`` gives observed settling time over bound.
- ``probes(cases)`` gives (protocol, topology, state) triples drawn from
  the workload's own inputs, for the vector-field probe of a traced run.
- ``host_corrected`` says whether operation times are divided by the
  host's slowdown, measured with run.py's reference computation.  That
  computation is Python-loop bound and tracks the host's swings for
  operations bound the same way; dense numpy kernels on large matrices
  follow them less, so sparse-large reports wall-clock times.

Large inputs are kept as edge lists, not dense matrices, so that the
benchmark's own data stays far below the program's peak memory.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import ftagree as ft
import ftagree.cli  # noqa: F401  (makes ft.cli available)

ALPHAS = (0.2, 0.5, 0.8)
# The acceptance tests' per-alpha agreement tolerances for dt = 1e-3,
# about 25x above the integrator's chatter floor (see the README).
FUZZ_TOLS = {0.2: 1e-2, 0.5: 1e-4, 0.8: 1e-6}


# --- benchmark-side graph helpers (numpy only, independent of ftagree) ---


def is_connected_weights(w: np.ndarray) -> bool:
    n = len(w)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        i = stack.pop()
        for j in np.nonzero(w[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def random_connected_weights(rng, n: int, p: float = 0.5) -> np.ndarray:
    """The acceptance tests' sampler: each pair kept with probability p,
    weight uniform in [0.5, 2], redrawn until connected."""
    while True:
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
        if is_connected_weights(w):
            return w


def ring_chords(rng, n: int, degree: int = 6):
    """Edge list (i, j, weight) with i < j of a ring over a random vertex
    order plus random chords up to the given average degree; weights
    uniform in [0.5, 2]."""
    perm = rng.permutation(n).tolist()
    pairs = {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:] + perm[:1])}
    target = min(degree * n // 2, n * (n - 1) // 2)
    while len(pairs) < target:
        i, j = rng.integers(0, n, size=(2, 2 * (target - len(pairs))))
        for a, b in zip(i.tolist(), j.tolist()):
            if a != b:
                pairs.add((min(a, b), max(a, b)))
                if len(pairs) == target:
                    break
    iu, ju = np.array(sorted(pairs)).T
    return iu, ju, rng.uniform(0.5, 2.0, size=iu.size)


def dense(n: int, edges) -> np.ndarray:
    iu, ju, wv = edges
    w = np.zeros((n, n))
    w[iu, ju] = wv
    w[ju, iu] = wv
    return w


def laplacian(w: np.ndarray) -> np.ndarray:
    return np.diag(w.sum(axis=1)) - w


def lambda2(w: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(laplacian(w))[1])


def v1_of(w: np.ndarray, x: np.ndarray) -> float:
    return float(0.5 * x @ laplacian(w) @ x)


def v2_of(x: np.ndarray) -> float:
    d = x - x.mean()
    return float(0.5 * d @ d)


def t1_closed(v1: float, lam: float, alpha: float) -> float:
    return (2.0 * v1) ** ((1.0 - alpha) / 2.0) / (
        (1.0 - alpha) * lam ** ((1.0 + alpha) / 2.0)
    )


def t2_closed(v2: float, lam: float, alpha: float) -> float:
    return 2.0 ** (1.0 - alpha) * v2 ** ((1.0 - alpha) / 2.0) / (
        (1.0 - alpha) * lam ** ((1.0 + alpha) / 2.0)
    )


def transformed(w: np.ndarray, alpha: float) -> np.ndarray:
    return w ** (2.0 / (1.0 + alpha))


def edge_lines(edges) -> list[str]:
    iu, ju, wv = edges
    return [f"edge {i} {j} {w!r}" for i, j, w in zip(iu.tolist(), ju.tolist(), wv.tolist())]


def scenario_text(protocol, alpha, x0, dt, t_max, tol, graphs, schedule=None) -> str:
    lines = [
        f"protocol = {protocol}",
        f"alpha = {alpha!r}",
        "x0 = [" + ", ".join(repr(float(v)) for v in x0) + "]",
        f"dt = {dt!r}",
        f"t_max = {t_max!r}",
        f"agree_tol = {tol!r}",
    ]
    if schedule is None:
        lines.append("topology = G1")
    else:
        lines.append("schedule = " + ", ".join(f"{g}:{schedule!r}" for g in graphs) + " cyclic")
    for name, edges in graphs.items():
        lines += ["", f"[topology.{name}]"] + edge_lines(edges)
    return "\n".join(lines) + "\n"


def run_cli_captured(argv: list[str]) -> tuple[int, str]:
    """run_cli with its stdout captured (the benchmark's stdout is reserved
    for the result line)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ft.cli.run_cli(argv)
    return code, buf.getvalue()


def csv_problem(path: Path, n: int, samples: int) -> Optional[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or len(lines[0].split(",")) != n + 5:
        return f"{path.name}: header does not have n+5={n + 5} columns"
    if len(lines) - 1 != samples:
        return f"{path.name}: {len(lines) - 1} rows for {samples} samples"
    return None


def key_values(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            try:
                out[key.strip()] = float(value)
            except ValueError:
                continue
    return out


# --- fuzz-small ----------------------------------------------------------


@dataclass
class FuzzCase:
    alpha: float
    tol: float
    x0: np.ndarray
    weights: list  # one matrix, or three for the switching schedule
    t1: float  # independent closed-form bounds (numpy eigvalsh)
    t2: float
    t3: Optional[float]


@dataclass
class FuzzInput:
    alpha: float
    tol: float
    x0: np.ndarray
    p1: object
    p2: object
    topologies: list
    schedule: object


@dataclass
class FuzzResult:
    t1: float
    t2: float
    traj_p1: object
    traj_p2: object
    envelope_p1: object
    envelope_p2: object
    drift_p2: float
    t3: Optional[float] = None
    traj_switching: object = None
    drift_switching: Optional[float] = None


class FuzzSmall:
    name = "fuzz-small"
    host_corrected = True
    pool = 108  # three full cycles of the (alpha, n, switching) design
    per_slot = 8  # candidates drawn per case, for stratification
    cycle = 1
    trace_rate = 2.0  # nominal ops/s, sizes the traced run
    builds_objects = True
    dt = 1e-3

    def generate(self, seed: int, size: str = "full", workdir=None) -> list[FuzzCase]:
        """Stratified sample of the acceptance tests' sampler.  Each
        (alpha, n, switching) class draws `per_slot` candidates per slot,
        sorts them by their closed-form bound (which tracks the operation's
        cost) and takes the middle candidate of each stratum, so every run
        sees the same spread of cheap and costly cases.  A class's strata
        rotate with its n and switching pattern, so every 36 consecutive
        cases hold each (alpha, stratum) pair four times and a run's mix
        does not hinge on how many cases it reaches.  The median of a cost
        proxy (t1 + t2 + t3) over a run's first 60 cases spread 0.045
        (IQR/median over 20 seeds) with stratification and 0.109 with one
        plain draw per case."""
        rng = np.random.default_rng(seed)
        slots = range(self.pool if size == "full" else 6)
        classes = {}
        for k in slots:
            # one case in three switches, covering every alpha and n equally
            key = (ALPHAS[k % 3], 3 + (k // 3) % 4, (k // 3) % 3 == k % 3)
            classes.setdefault(key, []).append(k)
        cases = [None] * len(slots)
        for (alpha, n, switching), ks in classes.items():
            cands = sorted(
                (self._candidate(rng, alpha, n, switching) for _ in range(self.per_slot * len(ks))),
                key=lambda c: c.t1 + c.t2 + (c.t3 or 0.0),
            )
            for j, k in enumerate(ks):
                stratum = (j + k // 3) % len(ks)
                cases[k] = cands[stratum * self.per_slot + self.per_slot // 2]
        return cases

    @staticmethod
    def _candidate(rng, alpha: float, n: int, switching: bool) -> FuzzCase:
        weights = [random_connected_weights(rng, n) for _ in range(3 if switching else 1)]
        x0 = rng.uniform(-10.0, 10.0, n)
        w = weights[0]
        t1 = t1_closed(v1_of(w, x0), lambda2(w), alpha)
        t2 = t2_closed(v2_of(x0), lambda2(transformed(w, alpha)), alpha)
        t3 = None
        if switching:
            lam_min = min(lambda2(transformed(q, alpha)) for q in weights)
            t3 = t2_closed(v2_of(x0), lam_min, alpha)
        return FuzzCase(alpha, FUZZ_TOLS[alpha], x0, weights, t1, t2, t3)

    def build(self, cases: list[FuzzCase]) -> list[FuzzInput]:
        items = []
        for c in cases:
            n = c.x0.size
            tops = [ft.Topology(n, w) for w in c.weights]
            schedule = None
            if len(tops) == 3:
                schedule = ft.SwitchingSchedule(
                    phases=(("A", 0.25), ("B", 0.25), ("C", 0.25)), cyclic=True
                )
            items.append(
                FuzzInput(
                    c.alpha,
                    c.tol,
                    c.x0,
                    ft.ProtocolSpec(ft.ProtocolKind.P1, c.alpha),
                    ft.ProtocolSpec(ft.ProtocolKind.P2, c.alpha),
                    tops,
                    schedule,
                )
            )
        return items

    def op(self, x: FuzzInput) -> FuzzResult:
        a = x.alpha
        top = x.topologies[0]
        lam2_a = ft.algebraic_connectivity(top)
        lam2_b = ft.algebraic_connectivity(ft.exponent_transform(top, a))
        v1_0 = ft.v1(top, x.x0)
        v2_0 = ft.v2(x.x0)
        t1 = ft.t1_bound(v1_0, lam2_a, a)
        t2 = ft.t2_bound(v2_0, lam2_b, a)
        common = dict(
            topologies={"G": top}, topology="G", x0=x.x0, dt=self.dt,
            agree_tol=x.tol, record_every=10,
        )
        traj_p1 = ft.integrate(ft.Scenario(protocol=x.p1, t_max=1.1 * t1 + 1.0, **common))
        traj_p2 = ft.integrate(ft.Scenario(protocol=x.p2, t_max=1.1 * t2 + 1.0, **common))
        res = FuzzResult(
            t1=t1,
            t2=t2,
            traj_p1=traj_p1,
            traj_p2=traj_p2,
            envelope_p1=ft.verify_envelope(traj_p1, v1_0, ft.k1_constant(lam2_a, a), a, "v1"),
            envelope_p2=ft.verify_envelope(traj_p2, v2_0, ft.k2_constant(lam2_b, a), a, "v2"),
            drift_p2=ft.conservation_drift(traj_p2),
        )
        if x.schedule is not None:
            lam_min = min(
                ft.algebraic_connectivity(ft.exponent_transform(t, a)) for t in x.topologies
            )
            res.t3 = ft.t3_bound(v2_0, lam_min, a)
            res.traj_switching = ft.integrate(
                ft.Scenario(
                    protocol=x.p2,
                    topologies=dict(zip("ABC", x.topologies)),
                    schedule=x.schedule,
                    x0=x.x0,
                    dt=self.dt,
                    t_max=1.1 * res.t3 + 1.0,
                    agree_tol=x.tol,
                    record_every=10,
                )
            )
            res.drift_switching = ft.conservation_drift(res.traj_switching)
        return res

    def check(self, c: FuzzCase, r: FuzzResult) -> Optional[str]:
        budget = 1e-9 * (1.0 + abs(float(c.x0.sum())))
        mean = float(c.x0.mean())
        runs = [("p1", r.traj_p1, r.t1, c.t1), ("p2", r.traj_p2, r.t2, c.t2)]
        if c.t3 is not None:
            if r.traj_switching is None:
                return "switching run missing"
            runs.append(("switching", r.traj_switching, r.t3, c.t3))
        for label, traj, bound, ref in runs:
            if not math.isclose(bound, ref, rel_tol=1e-8):
                return f"{label} bound {bound!r} differs from closed form {ref!r}"
            if traj.status != "Converged":
                return f"{label} status {traj.status}"
            if traj.converged_at > bound:
                return f"{label} converged at {traj.converged_at} > bound {bound}"
            if label != "p1" and abs(traj.final_value - mean) > 10.0 * c.tol:
                return f"{label} final value {traj.final_value} is not the mean {mean}"
        for label, drift in (("p2", r.drift_p2), ("switching", r.drift_switching)):
            if drift is not None and not drift <= budget:
                return f"{label} drift {drift} > {budget}"
        if not (r.envelope_p1.passed and r.envelope_p2.passed):
            return "decay envelope violated"
        return None

    def tightness(self, c: FuzzCase, r: FuzzResult) -> list[float]:
        out = [r.traj_p1.converged_at / c.t1, r.traj_p2.converged_at / c.t2]
        if c.t3 is not None:
            out.append(r.traj_switching.converged_at / c.t3)
        return out

    def probes(self, cases: list[FuzzCase]):
        for c in cases[:12]:
            top = ft.Topology(c.x0.size, c.weights[0])
            yield c.alpha, top, c.x0


# --- sparse-large --------------------------------------------------------


@dataclass
class SparseCase:
    n: int
    edges: tuple  # (i, j, weight) arrays
    x0: np.ndarray
    files: dict  # protocol -> (scenario, csv, report) paths


class SparseLarge:
    name = "sparse-large"
    host_corrected = False
    pool = 12
    cycle = 1
    trace_rate = 0.5
    builds_objects = False
    alpha = 0.5
    dt = 1e-2
    t_max = 5.0
    # The initial states are an evenly spaced grid over [-0.5, 0.5] in a
    # seeded order, so every run starts from the same spread.  agree_tol is
    # fixed (like the tests' per-alpha tolerances) at 2.5x the chatter-floor
    # estimate (c*dt)**(1/(1-alpha)) for a largest weighted degree c = 20,
    # and about 20x the spread at which P2 stalls on these graphs.
    x0_half_width = 0.5
    agree_tol = 0.1
    # Sizes fall from hi to lo in the same order for every seed: with sizes
    # drawn from the seed, the allocator's high-water mark (peak_rss_mb)
    # jumped by one n-by-n matrix in some runs and not in others.

    def generate(self, seed: int, size: str = "full", workdir=None) -> list[SparseCase]:
        rng = np.random.default_rng(seed)
        lo, hi = (850, 950) if size == "full" else (40, 60)
        cases = []
        for k in range(self.pool if size == "full" else 2):
            n = hi - (hi - lo) * k // (self.pool - 1)
            edges = ring_chords(rng, n)
            x0 = rng.permutation(np.linspace(-self.x0_half_width, self.x0_half_width, n))
            files = {}
            for proto in ("p2", "p1"):
                base = Path(workdir) / f"sparse{k}-{proto}" if workdir else None
                if base is not None:
                    base.with_suffix(".scn").write_text(
                        scenario_text(proto, self.alpha, x0, self.dt, self.t_max,
                                      self.agree_tol, {"G1": edges}),
                        encoding="utf-8",
                    )
                    files[proto] = tuple(
                        str(base.with_suffix(s)) for s in (".scn", ".csv", ".json")
                    )
            cases.append(SparseCase(n, edges, x0, files))
        return cases

    def build(self, cases):
        return cases

    def op(self, c: SparseCase):
        out = {}
        for proto, (scn, csv, rep) in c.files.items():
            out[proto] = run_cli_captured(["simulate", scn, "--out", csv, "--report", rep])
        return out

    def check(self, c: SparseCase, r) -> Optional[str]:
        for proto, (code, _stdout) in r.items():
            if code != 0:
                return f"{proto}: exit code {code}"
            _scn, csv, rep = c.files[proto]
            report = json.loads(Path(rep).read_text(encoding="utf-8"))
            if report["status"] != "Converged":
                return f"{proto}: status {report['status']}"
            # P2 conserves the state sum, and the snap at agreement sets the
            # state to its mean, so the final value is mean(x0) to roundoff.
            error = abs(report["final_value"] - float(c.x0.mean()))
            if proto == "p2" and error > 1e-9:
                return f"p2: final value {report['final_value']} is not the mean"
            problem = csv_problem(Path(csv), c.n, report["samples"])
            if problem:
                return f"{proto}: {problem}"
        return None

    def tightness(self, c: SparseCase, r) -> list[float]:
        w = dense(c.n, c.edges)
        out = []
        for proto, bound in (
            ("p1", t1_closed(v1_of(w, c.x0), lambda2(w), self.alpha)),
            ("p2", t2_closed(v2_of(c.x0), lambda2(transformed(w, self.alpha)), self.alpha)),
        ):
            report = json.loads(Path(c.files[proto][2]).read_text(encoding="utf-8"))
            if report["converged_at"] is not None:
                out.append(report["converged_at"] / bound)
        return out

    def probes(self, cases: list[SparseCase]):
        c = cases[0]
        yield self.alpha, ft.Topology(c.n, dense(c.n, c.edges)), c.x0


# --- spectral-mid --------------------------------------------------------


@dataclass
class SpectralCase:
    command: str  # "bounds" or "spectral"
    path: str
    alpha: float
    x0: np.ndarray
    g1: tuple  # edge list of the first topology
    v1_0: float  # numpy V1 of x0 on the first topology
    eigenvalues: dict  # name -> numpy eigvalsh of the Laplacian
    lambda2_b: dict  # name -> lambda2 of the transformed Laplacian


class SpectralMid:
    name = "spectral-mid"
    host_corrected = True
    # One cycle is six operations, each on its own scenario file, that span
    # n 30-65, 2-4 topologies and both commands; runs end on a whole cycle,
    # so every run times the same mix.  n stops at 65: at n = 100 one
    # operation took 1.5 s and the run-to-run spread of the median doubled.
    designs = {
        "full": (("bounds", 30, 4, 0.2), ("spectral", 45, 4, 0.5), ("bounds", 50, 2, 0.8),
                 ("spectral", 55, 3, 0.2), ("spectral", 65, 2, 0.5), ("bounds", 40, 3, 0.8)),
        "tiny": (("bounds", 8, 4, 0.2), ("spectral", 9, 4, 0.5), ("bounds", 10, 2, 0.8),
                 ("spectral", 10, 3, 0.2), ("spectral", 11, 2, 0.5), ("spectral", 12, 2, 0.8)),
    }
    cycle = 6
    pool = 60
    trace_rate = 1.6
    builds_objects = False

    def generate(self, seed: int, size: str = "full", workdir=None) -> list[SpectralCase]:
        rng = np.random.default_rng(seed)
        cases = []
        for k in range(self.pool):
            command, n, count, alpha = self.designs[size][k % self.cycle]
            graphs = {f"G{i + 1}": ring_chords(rng, n) for i in range(count)}
            x0 = rng.uniform(-10.0, 10.0, n)
            path = str(Path(workdir) / f"spectral{k}.scn") if workdir else ""
            if workdir:
                Path(path).write_text(
                    scenario_text("p2", alpha, x0, 1e-3, 100.0, 1e-4, graphs, schedule=0.25),
                    encoding="utf-8",
                )
            weights = {g: dense(n, e) for g, e in graphs.items()}
            eig = {g: np.linalg.eigvalsh(laplacian(w)) for g, w in weights.items()}
            lam_b = {g: lambda2(transformed(w, alpha)) for g, w in weights.items()}
            v1_0 = v1_of(weights["G1"], x0)
            cases.append(SpectralCase(command, path, alpha, x0, graphs["G1"], v1_0, eig, lam_b))
        return cases

    def build(self, cases):
        return cases

    def op(self, c: SpectralCase):
        return run_cli_captured([c.command, c.path])

    def check(self, c: SpectralCase, r) -> Optional[str]:
        code, out = r
        if code != 0:
            return f"{c.command}: exit code {code}"
        if c.command == "spectral":
            return self._check_spectral(c, out)
        return self._check_bounds(c, out)

    @staticmethod
    def _check_spectral(c: SpectralCase, out: str) -> Optional[str]:
        seen = set()
        for line in out.splitlines():
            name, _, rest = line.partition(": [")
            values, _, tail = rest.partition("] (residual ")
            printed = np.array([float(v) for v in values.split(",")])
            ref = c.eigenvalues.get(name)
            if ref is None or printed.shape != ref.shape:
                return f"spectral: unexpected line {line[:40]!r}"
            scale = max(1.0, float(np.abs(ref).max()))
            err = float(np.abs(printed - ref).max())
            if err > 1e-8 * scale:
                return f"spectral: {name} eigenvalues off by {err:.3g}"
            if not float(tail.rstrip(")")) <= 1e-8 * scale:
                return f"spectral: {name} residual {tail.rstrip(')')}"
            seen.add(name)
        if seen != set(c.eigenvalues):
            return f"spectral: printed {sorted(seen)}, expected {sorted(c.eigenvalues)}"
        return None

    @staticmethod
    def _check_bounds(c: SpectralCase, out: str) -> Optional[str]:
        got = key_values(out)
        keys = ("v1_0", "v2_0", "lambda2_A", "lambda2_B", "t1", "t2", "t3", "t1_limit_alpha0", "alpha")
        if any(k not in got for k in keys):
            return "bounds: missing keys"
        a = c.alpha
        # Printed with 6 decimals: compare measured inputs to numpy within
        # rounding, then the bounds to closed forms of the printed inputs.
        ref = {
            "v1_0": c.v1_0,
            "v2_0": v2_of(c.x0),
            "lambda2_A": float(c.eigenvalues["G1"][1]),
            "lambda2_B": c.lambda2_b["G1"],
            "alpha": a,
        }
        for k, v in ref.items():
            if abs(got[k] - v) > 1e-6 + 1e-9 * abs(v):
                return f"bounds: {k} = {got[k]} but numpy gives {v}"
        closed = {
            "t1": t1_closed(got["v1_0"], got["lambda2_A"], a),
            "t2": t2_closed(got["v2_0"], got["lambda2_B"], a),
            "t3": t2_closed(got["v2_0"], min(c.lambda2_b.values()), a),
            "t1_limit_alpha0": math.sqrt(2.0 * got["v1_0"] / got["lambda2_A"]),
        }
        for k, v in closed.items():
            if abs(got[k] - v) > 2e-6 + 2e-5 * abs(v):
                return f"bounds: {k} = {got[k]} but the closed form gives {v}"
        return None

    def tightness(self, c, r) -> list[float]:
        return []

    def probes(self, cases: list[SpectralCase]):
        for c in cases[:self.cycle]:
            yield c.alpha, ft.Topology(c.x0.size, dense(c.x0.size, c.g1)), c.x0


# --- repro ---------------------------------------------------------------

REF_X0 = np.array([-5.0, -3.0, 7.0, 9.0, 4.0, 5.0])
REF_ALPHA = 0.5
REF_WEIGHT = 2.0
REF_V1 = 338.0
REF_LAMBDA2_B = 1.0409
PUBLISHED = {
    "kappa": 2.8333, "V1(0)": 338.0, "V2(0)": 78.4167, "lambda2(L_B)": 1.0409,
    "t1": 11.7681, "t2": 8.1673, "t3": 11.3000,
}


def reconstruct_reference() -> list[np.ndarray]:
    """Independent brute force over the 2**15 edge subsets on six vertices:
    connected weight-2 graphs with edge energy 338 whose transformed
    connectivity is within 5e-4 of 1.0409, in subset-encoding order.
    Small chunks keep its memory far below the program's own search."""
    n = REF_X0.size
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    energy = np.array([0.5 * REF_WEIGHT * (REF_X0[j] - REF_X0[i]) ** 2 for i, j in pairs])
    hits = []
    for start in range(0, 1 << len(pairs), 1024):
        masks = np.arange(start, start + 1024)
        bits = (masks[:, None] >> np.arange(len(pairs))) & 1
        hits += masks[np.abs(bits @ energy - REF_V1) <= 1e-9].tolist()
    found = []
    for mask in hits:
        w = np.zeros((n, n))
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                w[i, j] = w[j, i] = REF_WEIGHT
        if is_connected_weights(w) and abs(lambda2(transformed(w, REF_ALPHA)) - REF_LAMBDA2_B) <= 5e-4:
            found.append(w)
    return found


def named_graph(kind: str, n: int = 6) -> np.ndarray:
    w = np.zeros((n, n))
    pairs = {
        "path": [(i, i + 1) for i in range(n - 1)],
        "cycle": [(i, (i + 1) % n) for i in range(n)],
        "complete": [(i, j) for i in range(n) for j in range(i + 1, n)],
    }[kind]
    for i, j in pairs:
        w[i, j] = w[j, i] = REF_WEIGHT
    return w


@dataclass
class ReproCase:
    outdir: str
    candidates: int
    expected: dict  # quantity -> independently recomputed value
    g1: np.ndarray


class Repro:
    name = "repro"
    host_corrected = True
    trace_rate = 1.5
    cycle = 1
    builds_objects = False

    def generate(self, seed: int, size: str = "full", workdir=None) -> list[ReproCase]:
        # The example's inputs are published constants; the seed only names
        # the output directory.
        outdir = str(Path(workdir) / f"repro-{seed}") if workdir else ""
        found = reconstruct_reference()
        g1 = found[0]
        a = REF_ALPHA
        v2 = v2_of(REF_X0)
        lam_min = min(
            lambda2(transformed(w, a))
            for w in (g1, named_graph("path"), named_graph("cycle"), named_graph("complete"))
        )
        expected = {
            "kappa": float(REF_X0.mean()),
            "V1(0)": v1_of(g1, REF_X0),
            "V2(0)": v2,
            "lambda2(L_B)": lambda2(transformed(g1, a)),
            # lam2(L_A) is derived from the published 1.0409 by the uniform
            # weight scaling, as the published t1 was.
            "t1": t1_closed(REF_V1, REF_LAMBDA2_B / REF_WEIGHT ** (2.0 / (1.0 + a) - 1.0), a),
            "t2": t2_closed(v2, REF_LAMBDA2_B, a),
            "t3": t2_closed(v2, lam_min, a),
            "alpha0_hitting_time_reference": float(REF_X0.max() - REF_X0.min()) / 2.0,
        }
        return [ReproCase(outdir, len(found), expected, g1)]

    def build(self, cases):
        return cases

    def op(self, c: ReproCase):
        return run_cli_captured(["repro", "--outdir", c.outdir])

    def check(self, c: ReproCase, r) -> Optional[str]:
        code, out = r
        if code != 0:
            return f"repro: exit code {code}"
        lines = out.splitlines()
        for label in ("p1", "p2", "switching"):
            if not any(line.startswith(f"{label}: Converged at ") for line in lines):
                return f"repro: {label} did not converge"
        if f"reconstructed candidates: {c.candidates}" not in lines:
            return f"repro: candidate count differs from {c.candidates}"
        rows = json.loads((Path(c.outdir) / "report.json").read_text(encoding="utf-8"))
        computed = {row["quantity"]: row["computed_value"] for row in rows}
        for k, v in c.expected.items():
            if k not in computed or abs(computed[k] - v) > 1e-9 * max(1.0, abs(v)):
                return f"repro: {k} = {computed.get(k)} but recomputation gives {v}"
        for name in ("protocol1", "protocol2", "switching"):
            header = (Path(c.outdir) / f"{name}.csv").read_text(encoding="utf-8").split("\n", 1)[0]
            if len(header.split(",")) != REF_X0.size + 5:
                return f"repro: {name}.csv header has wrong width"
        return None

    @staticmethod
    def published_gaps(c: ReproCase) -> dict:
        """Computed minus published value of every reported scalar. The t2
        gap (about 2.2e-4, over the 2e-4 tolerance of acceptance criterion
        2) comes from the published connectivity being rounded; it is data,
        not a failure of the oracle."""
        return {k: c.expected[k] - v for k, v in PUBLISHED.items()}

    def tightness(self, c: ReproCase, r) -> list[float]:
        times = {}
        for line in r[1].splitlines():
            label, sep, rest = line.partition(": Converged at ")
            if sep:
                times[label] = float(rest)
        pairs = (("p1", "t1"), ("p2", "t2"), ("switching", "t3"))
        return [times[p] / c.expected[t] for p, t in pairs if p in times]

    def probes(self, cases: list[ReproCase]):
        yield REF_ALPHA, ft.Topology(6, cases[0].g1), REF_X0


WORKLOADS = {w.name: w for w in (FuzzSmall(), SparseLarge(), SpectralMid(), Repro())}
