"""Smoke test of the benchmark itself (not of the package), at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py

Checks that every workload runs and prints every metric with its unit, that
the correctness gate counts a failure when handed a wrong result, that CLI
output digests must repeat, that the tracer puts every patched function back,
and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    want = dict(run.END_TO_END) if trace == 0 else tracing.UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name


def test_gate_counts_a_perturbed_evolved_state():
    lib = tracing.load(str(ROOT / "src"))
    ctx = lib.core.build_fock(lib.core.ModelParams(theta=1.0, cutoff=8))
    h = lib.dynamics.hamiltonian(ctx, lib.dynamics.HamiltonianSpec("oscillator"))
    psi0 = lib.oscillator.ground_state(ctx)
    psi_t = lib.dynamics.evolve(psi0, h, 0.7)
    wrong = lib.core.QuantumState(psi_t.op * (1.0 + 1e-6))

    gate = workloads.Gate()
    gate.run("good", lambda: (psi_t, workloads.evolve_rows(psi0, psi_t)))
    assert (gate.attempted, gate.failed) == (1, 0)
    gate.run("perturbed", lambda: (wrong, workloads.evolve_rows(psi0, wrong)))
    gate.run("nan", lambda: (None, [("value", float("nan"), 1.0)]))
    gate.run("raises", lambda: 1 / 0)
    assert (gate.attempted, gate.failed) == (4, 3)
    assert gate.reasons[0].startswith("perturbed: norm_drift=")


def test_gate_rejects_non_finite_cli_json(tmp_path):
    out = tmp_path / "report.json"
    out.write_text('{"norm_drift": NaN, "continuity_residual": 0.0}')
    gate = workloads.Gate()
    gate.run("evolve", lambda: workloads._cli_rows(["evolve"], 0, out))
    assert gate.failed == 1 and "non-finite" in gate.reasons[0]


def test_tracer_restores_every_patched_name():
    lib = tracing.load(str(ROOT / "src"))
    modules = [lib.package] + [getattr(lib, name) for name in tracing.LAYERS]
    before = [dict(vars(m)) for m in modules]
    eigh, matrix = tracing.np.linalg.eigh, lib.core.SuperOperator.__dict__["matrix"]
    tracer = tracing.Tracer()
    with tracing.patched(lib, tracer):
        assert lib.dynamics.evolve is not before[4]["evolve"]
        assert lib.cli.evolve is lib.dynamics.evolve  # the name cli bound at import is wrapped too
        ctx = lib.core.build_fock(lib.core.ModelParams(theta=1.0, cutoff=6))
    assert [dict(vars(m)) for m in modules] == before
    assert tracing.np.linalg.eigh is eigh and lib.core.SuperOperator.__dict__["matrix"] is matrix
    assert [s[0] for s in tracer.spans] == ["core.build_fock"]
    assert ctx.cutoff == 6


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_cli_outputs_must_repeat_across_passes_and_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    inp = {"commands": [["check", "--suite", "algebra", "--seed", "1"]]}
    problems = []
    run._check_cli_digests(inp, [["a"], ["a"]], problems)  # first run: stored
    assert problems == []
    run._check_cli_digests(inp, [["a"], ["b"]], problems)
    assert problems == ["cli output of pass 2 differs from pass 1"]
    problems.clear()
    run._check_cli_digests(inp, [["c"]], problems)
    assert len(problems) == 1 and "earlier run" in problems[0]
