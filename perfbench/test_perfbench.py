"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest -q -p no:cacheprovider perfbench

Each workload runs at a tiny size; the tests check that every named
metric is printed with its unit, that the traced run's counts repeat
exactly under one seed, that every oracle rejects a wrong answer, and
that the benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()
import tracing  # noqa: E402
import workloads  # noqa: E402

import ftagree  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
REPEATED_COUNTS = (
    "engine.steps",
    "engine.samples",
    "engine.field_evals",
    "spectral.eig_calls",
    "reconstruct.candidates",
    "output.csv_bytes",
)


def run_tiny(capsys, workload, trace, seed=7):
    code = run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--size", "tiny", "--trace", str(trace),
    ])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_matches_code():
    assert list(workloads.WORKLOADS) == NAMES
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_present(capsys, workload):
    result = run_tiny(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_under_a_seed(capsys, workload):
    first = run_tiny(capsys, workload, trace=1)
    second = run_tiny(capsys, workload, trace=1)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == tracing.LAYER_METRICS
    for name in REPEATED_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_all_runs_every_workload_both_ways(capsys):
    code = run.main([
        "--workload", "all", "--seed", "7", "--seconds", "0", "--size", "tiny",
    ])
    assert code == 0
    merged = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert merged["correct"] and merged["failed"] == 0
    expected = {f"{w}/{m}" for w in NAMES for m in [*run.END_TO_END, *tracing.LAYER_METRICS]}
    assert set(merged["metrics"]) == expected


def test_run_short_of_min_ops_fails_without_result(capsys, monkeypatch):
    monkeypatch.setattr(run, "HARD_STOP_S", -1.0)  # stop before the first operation
    code = run.main(["--workload", "repro", "--seed", "7", "--seconds", "0", "--size", "tiny"])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_host_correction_divides_by_the_nearby_reference_slowdown():
    ref = run.REFERENCE_S
    references = [ref, ref, 3.0 * ref, 3.0 * ref, 3.0 * ref, 3.0 * ref, 3.0 * ref]
    assert run.slowdown(references[-6:]) == pytest.approx(3.0)
    corrected = run.host_corrected([1.0] * 6, references)
    assert corrected[0] == pytest.approx(1.0 / 2.0)  # median of ref, ref, 3ref, 3ref
    assert corrected[5] == pytest.approx(1.0 / 3.0)


def test_tracer_accounts_for_all_time_and_restores_namespaces():
    original = (ftagree.cli.run_cli, ftagree.repro.integrate, ftagree.integrate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ftagree.repro.integrate is not original[1]
        traj, wall = tracer.run_op(0, lambda: ftagree.repro.run_repro().traj_p2)
    finally:
        tracer.uninstall()
    assert (ftagree.cli.run_cli, ftagree.repro.integrate, ftagree.integrate) == original
    assert traj.status == "Converged"
    assert tracer.self_time_gap() < 1e-9 * max(1.0, wall)
    calls, total, self_s = tracer.aggregate()
    assert calls["reconstruct.reconstruct_paper_graph"] == 1
    assert calls["engine.integrate"] == 3
    assert sum(self_s.values()) == pytest.approx(wall, rel=1e-9)


def broken_copy(path: Path, edit):
    text = path.read_text(encoding="utf-8")
    path.write_text(edit(text), encoding="utf-8")


def test_fuzz_oracle_rejects_wrong_answers():
    w = workloads.WORKLOADS["fuzz-small"]
    case = next(c for c in w.generate(3, "tiny") if c.t3 is not None)
    good = w.op(w.build([case])[0])
    assert w.check(case, good) is None
    traj = good.traj_p2
    wrong = [
        dataclasses.replace(good, traj_p1=dataclasses.replace(good.traj_p1, status="TimedOut")),
        dataclasses.replace(good, traj_p2=dataclasses.replace(traj, final_value=traj.final_value + 1.0)),
        dataclasses.replace(good, traj_p2=dataclasses.replace(traj, converged_at=2.0 * good.t2)),
        dataclasses.replace(good, drift_switching=1e-3),
        dataclasses.replace(good, envelope_p1=dataclasses.replace(good.envelope_p1, passed=False)),
        dataclasses.replace(good, t2=good.t2 * 1.01),
        dataclasses.replace(good, traj_switching=None),
    ]
    for r in wrong:
        assert w.check(case, r) is not None


def test_sparse_oracle_rejects_wrong_answers(tmp_path):
    w = workloads.WORKLOADS["sparse-large"]
    case = w.generate(3, "tiny", tmp_path)[0]
    good = w.op(case)
    assert w.check(case, good) is None
    assert w.check(case, {**good, "p1": (4, good["p1"][1])}) is not None
    _scn, csv, rep = case.files["p2"]
    report = json.loads(Path(rep).read_text(encoding="utf-8"))
    Path(rep).write_text(json.dumps({**report, "final_value": report["final_value"] + 1e-6}))
    assert w.check(case, good) is not None
    Path(rep).write_text(json.dumps(report))
    broken_copy(Path(csv), lambda t: t.rsplit("\n", 2)[0] + "\n")
    assert w.check(case, good) is not None


def test_spectral_oracle_rejects_wrong_answers(tmp_path):
    w = workloads.WORKLOADS["spectral-mid"]
    cases = w.generate(3, "tiny", tmp_path)
    bounds_case = next(c for c in cases if c.command == "bounds")
    spectral_case = next(c for c in cases if c.command == "spectral")
    for case in (bounds_case, spectral_case):
        good = w.op(case)
        assert w.check(case, good) is None
    code, out = w.op(bounds_case)
    t2 = next(line for line in out.splitlines() if line.startswith("t2 = "))
    assert w.check(bounds_case, (code, out.replace(t2, "t2 = 1.5"))) is not None
    code, out = w.op(spectral_case)
    first = out.split("[", 1)[1].split(",", 1)[0]
    assert w.check(spectral_case, (code, out.replace(first, "0.5", 1))) is not None
    assert w.check(spectral_case, (code, out.split("\n", 1)[1])) is not None
    assert w.check(spectral_case, (2, out)) is not None


def test_repro_oracle_rejects_wrong_answers(tmp_path):
    w = workloads.WORKLOADS["repro"]
    case = w.generate(3, "tiny", tmp_path)[0]
    code, out = w.op(case)
    assert w.check(case, (code, out)) is None
    gaps = w.published_gaps(case)
    assert abs(gaps["t2"]) > 2e-4  # the known criterion-2 gap is reported
    assert w.check(case, (code, out.replace("p2: Converged", "p2: TimedOut"))) is not None
    report = Path(case.outdir) / "report.json"
    rows = json.loads(report.read_text(encoding="utf-8"))
    rows[-2]["computed_value"] += 1e-3  # t3
    report.write_text(json.dumps(rows), encoding="utf-8")
    assert w.check(case, (code, out)) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "repro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
