"""End-to-end CLI behavior: exit codes, report schemas, files, determinism."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ncqm import ModelParams, cli, core, energy
from ncqm.cli import main

THETA = 0.1
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------- exit codes

@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["spectrum", "--system", "free"],
        ["spectrum", "--levels", "0", "--theta", "0"],
        ["spectrum", "--theta", "-1"],
        ["probability"],
        ["check"],
        ["check", "--suite", "nope"],
        ["evolve", "--omega", "0"],
        ["evolve", "--state", "coherent:0.5", "--omega", "0"],
        ["evolve", "--format", "json"],
        ["evolve", "--state", "excited:1"],
        ["evolve", "--state", "nonsense"],
        ["evolve", "--kappa", "0.2"],
        ["spectrum", "--kappa", "0.2"],
        ["check", "--suite", "algebra", "--seed=-1"],
    ],
    ids=[
        "no-command",
        "free-without-kappa",
        "zero-levels",
        "negative-theta",
        "probability-without-out",
        "check-without-suite",
        "unknown-suite",
        "degenerate-oscillator",
        "degenerate-oscillator-hamiltonian",
        "format-is-spectrum-only",
        "malformed-excited",
        "unknown-selector",
        "kappa-is-spectrum-only",
        "kappa-is-free-only",
        "negative-seed",
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert argv == [] or "error:" in err


def test_probability_commutative_theta_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys, ["probability", "--theta", "0", "--out", str(tmp_path / "p.csv")]
    )
    assert code == 2
    assert "theta > 0" in err


@pytest.mark.parametrize(
    "content",
    ["[1, 2]", "{}", '{"schema": 1, "waves": 3}', "{not json"],
    ids=["non-object", "missing-schema", "unknown-key", "invalid-json"],
)
def test_config_file_errors_exit_2(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, _, err = run(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("command,content,key", [
    ("evolve", '{"schema": 1, "time": "abc"}', "time"),
    ("spectrum", '{"schema": 1, "theta": "x"}', "theta"),
    ("spectrum", '{"schema": 1, "cutoff": 30.5}', "cutoff"),
    ("spectrum", '{"schema": 1, "format": "xml"}', "format"),
    ("evolve", '{"schema": 1, "system": "bad"}', "system"),
    ("spectrum", '{"schema": 1, "theta": true, "levels": true}', "theta"),
    ("check", '{"schema": 1, "suite": "algebra", "seed": false}', "seed"),
    ("check", '{"schema": 1, "suite": "nope"}', "suite"),
    ("evolve", '{"schema": 1, "system": "free", "kappa": 0.2}', "kappa"),
    ("check", '{"schema": 1, "suite": "algebra", "seed": -1}', "seed"),
    # a number would reach open() as a file descriptor: stderr, stdout, or a bad one
    ("check", '{"schema": 1, "suite": "algebra", "out": 2}', "out"),
    ("probability", '{"schema": 1, "points": 5, "out": 1}', "out"),
    ("evolve", '{"schema": 1, "out": 7}', "out"),
    ("spectrum", '{"schema": 1, "out": ["a.json"]}', "out"),
], ids=["evolve-time", "spectrum-theta", "spectrum-cutoff", "spectrum-format", "evolve-system",
        "spectrum-theta-bool", "check-seed-bool", "check-suite", "evolve-kappa", "check-seed-negative",
        "check-out-stderr", "probability-out-stdout", "evolve-out-bad-descriptor", "spectrum-out-list"])
def test_config_values_that_are_not_numbers_exit_2(capsys, tmp_path, command, content, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, out, err = run(capsys, [command, "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: config key '{key}'") and err.count("\n") == 1


@pytest.mark.parametrize("argv,limit,unreached", [
    (["probability", "--points", "1002", "--out", "{out}"], 1001,
     ("_build_state", "probability_grid")),
    (["spectrum", "--theta", "0", "--levels", "10001"], 10000, ("_analytic_levels",)),
    (["spectrum", "--levels", "10001"], 10000, ("build_fock",)),
], ids=["points", "levels-commutative", "levels"])
def test_size_caps_exit_2_before_building_anything(capsys, tmp_path, monkeypatch,
                                                   argv, limit, unreached):
    from ncqm import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("a capped size reached the build")

    for name in unreached:
        monkeypatch.setattr(cli, name, unreachable)
    argv = [a.replace("{out}", str(tmp_path / "p.csv")) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"capped at {limit}" in err


# the CLI exit code of each exported package error: 2 for the usage family, 3 for the rest
_EXIT_BY_ERROR = {
    "NcqmError": 3, "UsageError": 2, "NumericalError": 3,
    "ConfigurationError": 2, "ValidationError": 2, "DegenerateOscillatorError": 2,
    "TruncationError": 3, "ConvergenceError": 3, "ConsistencyError": 3, "MeasurementImpossibleError": 3,
}


def test_exit_table_names_every_exported_error():
    exported = {name for name in core.__all__
                if isinstance(getattr(core, name), type) and issubclass(getattr(core, name), core.NcqmError)}
    assert exported == set(_EXIT_BY_ERROR)


@pytest.mark.parametrize("exc,expected", [
    *((getattr(core, name)("refused"), code) for name, code in _EXIT_BY_ERROR.items()),
    (OSError("disk full"), 3),
    (MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000)"), 3),
    (MemoryError(), 3),
], ids=[*_EXIT_BY_ERROR, "OSError", "MemoryError", "MemoryError-bare"])
def test_exit_code_follows_the_error_family(capsys, monkeypatch, exc, expected):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "spectrum", (fail, "always fails"))
    code, out, err = run(capsys, ["spectrum"])
    assert code == expected and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.strip() != "error:"
    assert "Traceback" not in err


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["spectrum", "--config", str(tmp_path / "absent.json")])
    assert code == 2 and "cannot read config" in err


def test_truncation_failures_exit_3(capsys, tmp_path):
    # plane wave too wide for the cutoff
    code, _, err = run(capsys, ["spectrum", "--system", "free", "--kappa", "2.0"])
    assert code == 3 and "kappa" in err
    # ground state needs more levels than the requested cutoff holds
    code, _, err = run(
        capsys,
        ["probability", "--cutoff", "20", "--out", str(tmp_path / "p.csv")],
    )
    assert code == 3 and "error:" in err


@pytest.mark.parametrize("theta,needed", [("0.001", 550), ("0.01", 153)])
def test_spectrum_refuses_a_truncated_ground_state(capsys, tmp_path, theta, needed):
    # these once paired a level at 118.2 (theta = 0.001) with the closed form 1.9995, exit 0
    target = tmp_path / "levels.json"
    code, out, err = run(capsys, ["spectrum", "--theta", theta, "--out", str(target)])
    assert code == 3 and out == ""
    assert err.startswith("error: ground-state tail weight") and f"need N >= {needed}" in err
    assert not target.exists()


def test_failing_check_exits_1(capsys):
    # extreme theta drives absolute commutator roundoff past the fixed tolerance
    code, out, _ = run(capsys, ["check", "--suite", "algebra", "--theta", "1e8", "--cutoff", "12"])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert any(not row["pass"] for row in report["checks"])


@pytest.mark.parametrize("value,expected", [("abc", 2), ("0", 2), ("2", 0)])
def test_thread_env_validation(capsys, monkeypatch, value, expected):
    monkeypatch.setenv("NCQM_THREADS", value)
    code, _, _ = run(capsys, ["spectrum", "--theta", "0", "--levels", "2"])
    assert code == expected


# ---------------------------------------------------------------- spectrum

def test_spectrum_default_json(capsys):
    report = run_json(capsys, ["spectrum", "--levels", "3"])
    assert report["schema"] == 1 and report["command"] == "spectrum"
    assert report["system"] == "oscillator"
    assert report["params"]["cutoff"] == 30
    rows = report["levels"]
    assert len(rows) == 3
    ground = rows[0]
    assert (ground["n1"], ground["n2"]) == (0, 0)
    assert ground["analytic_energy"] == pytest.approx(1.0012492197250393, rel=1e-12)
    assert abs(ground["lz"]) < 1e-8
    assert ground["boundary_weight"] < 0.05
    # truncation pulls levels down a few percent at this cutoff
    assert ground["energy"] == pytest.approx(ground["analytic_energy"], rel=0.1)
    assert ground["delta"] == pytest.approx(ground["energy"] - ground["analytic_energy"], abs=1e-15)
    # lz is the exact angular-momentum label -hbar (m - l) of the state's sector,
    # so it carries no truncation shift (the energy does)
    assert (rows[1]["n1"], rows[1]["n2"]) == (0, 1)
    assert rows[1]["lz"] == pytest.approx(1.0, abs=0.02)
    assert (rows[2]["n1"], rows[2]["n2"]) == (1, 0)
    assert rows[2]["lz"] == pytest.approx(-1.0, abs=0.02)


def _tower_table(params, lzs):
    """The pairing by an explicit table: every (n1, n2) to a depth, grouped by tower, sorted, taken in order."""
    depth = 2 * len(lzs) + 8
    towers = {}
    for n1 in range(depth + 1):
        for n2 in range(depth + 1 - n1):
            towers.setdefault(n2 - n1, []).append((energy(params, n1, n2), n1, n2))
    for queue in towers.values():
        queue.sort()
    used = dict.fromkeys(towers, 0)
    pairs = []
    for lz in lzs:
        m = round(lz / params.hbar)
        e, n1, n2 = towers[m][used[m]]  # a level without a partner fails here
        used[m] += 1
        pairs.append((n1, n2, e))
    return pairs


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("cutoff", [30, 60])
@pytest.mark.parametrize("levels", [10, 100])
def test_closed_form_pairing_matches_the_tower_table(capsys, monkeypatch, theta, cutoff, levels):
    streams = []
    stream = cli.spectrum_levels
    monkeypatch.setattr(cli, "spectrum_levels", lambda h: streams.append(h) or stream(h))
    report = run_json(capsys, ["spectrum", "--theta", str(theta), "--cutoff", str(cutoff),
                               "--levels", str(levels)])
    rows = report["levels"]
    params = ModelParams(**report["params"])
    assert [(r["n1"], r["n2"], r["analytic_energy"]) for r in rows] == _tower_table(
        params, [r["lz"] for r in rows])
    assert len(streams) == 1  # read until enough levels pass the boundary filter, never re-solved


def test_spectrum_and_oracle_suite_share_one_report_path(tmp_path, monkeypatch):
    calls, streams = [], []
    helper, stream = cli._oscillator_levels, cli.spectrum_levels
    monkeypatch.setattr(cli, "_oscillator_levels", lambda h, levels: calls.append(levels) or helper(h, levels))
    monkeypatch.setattr(cli, "spectrum_levels", lambda h: streams.append(h) or stream(h))
    assert main(["spectrum", "--out", str(tmp_path / "s.json")]) == 0
    assert calls == [10] and len(streams) == 1
    calls.clear()
    streams.clear()
    assert main(["check", "--suite", "oscillator-oracle", "--out", str(tmp_path / "c.json")]) == 0
    assert calls == [8] and len(streams) == 1


def test_large_spectrum_request_runs_in_bounded_memory(tmp_path):
    # each state is dropped once the boundary filter has read it: 316 MiB when all
    # solved states were built first, about 4 MiB now
    tracemalloc.start()
    try:
        assert main(["spectrum", "--levels", "1000", "--cutoff", "60", "--out", str(tmp_path / "s.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_povm_suite_works_on_the_projector_in_bounded_memory(tmp_path):
    # the dense N^2 x N^2 POVM elements took 244 MiB traced at N = 48; the N x N projector about 2 MiB
    tracemalloc.start()
    try:
        assert main(["check", "--suite", "povm", "--cutoff", "48", "--out", str(tmp_path / "p.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert [row["name"] for row in json.loads((tmp_path / "p.json").read_text())["checks"]] == [
        "psd_violation", "series_vs_matrix_agreement", "identity_quadrature_low_levels"]


@pytest.mark.parametrize("cutoff", [80, 160])
def test_povm_suite_runs_past_the_series_oracle_reach(tmp_path, cutoff):
    # the series oracle refuses dense states that reach about level 66, so the samples must not grow with N
    assert main(["check", "--suite", "povm", "--cutoff", str(cutoff), "--out", str(tmp_path / "p.json")]) == 0
    assert [row["name"] for row in json.loads((tmp_path / "p.json").read_text())["checks"]] == [
        "psd_violation", "series_vs_matrix_agreement", "identity_quadrature_low_levels"]


def test_spectrum_commutative_csv_exact(capsys):
    code, out, _ = run(
        capsys, ["spectrum", "--theta", "0", "--levels", "6", "--format", "csv"]
    )
    assert code == 0
    assert out == (
        "# spectrum, system=oscillator, cutoff=30, hbar=1.0, mass=1.0, omega=1.0, theta=0.0\n"
        "index,energy,lz,n1,n2\n"
        "0,1.0,0.0,0,0\n"
        "1,2.0,-1.0,1,0\n"
        "2,2.0,1.0,0,1\n"
        "3,3.0,-2.0,2,0\n"
        "4,3.0,0.0,1,1\n"
        "5,3.0,2.0,0,2\n"
    )


def test_spectrum_free_csv(capsys):
    code, out, _ = run(capsys, ["spectrum", "--system", "free", "--kappa", "0.2", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "kappa_re,kappa_im,energy,interior_residual,mask_depth"
    kre, kim, energy, residual, depth = lines[2].split(",")
    assert float(kre) == 0.2 and float(kim) == 0.0
    assert float(energy) == pytest.approx(0.04 / THETA, rel=1e-14)
    assert float(residual) < 1e-12
    assert depth == "14"


def test_config_file_feeds_defaults_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "theta": 0.2, "levels": 3}))
    code, out, _ = run(
        capsys,
        ["spectrum", "--config", str(cfg), "--theta", "0", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert "theta=0.0" in lines[0]  # explicit flag beats the config value
    assert len(lines) == 2 + 3  # header + columns + config-supplied level count


# a cheap run of each command, and one value per numeric flag; the flag list is the CLI's own table
_CHEAP = {
    "spectrum": {"cutoff": "40", "levels": "3"},
    "probability": {"state": "coherent:0.3", "cutoff": "20", "points": "7"},
    "evolve": {"state": "coherent:0.3", "cutoff": "16", "time": "0.5"},
    "check": {"suite": "algebra", "cutoff": "10"},
}
_VALUES = {"theta": 0.2, "hbar": 1.5, "mass": 2, "omega": 1.5, "cutoff": 30, "seed": 3,
           "levels": 4, "points": 9, "extent": 1.5, "time": 0.25}
_NUMERIC = [(command, key) for command in cli._COMMANDS for key, (commands, _, kwargs) in cli._FLAGS.items()
            if command in commands and kwargs.get("type") in (int, float)]


@pytest.mark.parametrize("command,key", _NUMERIC, ids=[f"{c}-{k}" for c, k in _NUMERIC])
def test_config_value_and_flag_give_identical_output(capsys, tmp_path, command, key):
    base = [a for k, v in _CHEAP[command].items() if k != key for a in (f"--{k}", v)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, key: _VALUES[key]}))
    outputs = []
    for extra in (["--config", str(cfg)], [f"--{key}", str(_VALUES[key])]):
        out = tmp_path / f"out{len(outputs)}"
        code, stdout, err = run(capsys, [command, *base, *extra, "--out", str(out)])
        assert code == 0 and stdout == "", err
        sidecar = Path(f"{out}.meta.json")
        outputs.append((out.read_bytes(), sidecar.read_bytes() if sidecar.exists() else None))
    assert outputs[0] == outputs[1]


def test_out_flag_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "levels.csv"
    code, out, _ = run(
        capsys,
        ["spectrum", "--theta", "0", "--levels", "2", "--format", "csv", "--out", str(target)],
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("# spectrum")


# ---------------------------------------------------------------- probability

def grid_axis(extent, points):
    return np.linspace(-extent, extent, points)


def test_probability_coherent_grid(capsys, tmp_path):
    out_path = tmp_path / "density.csv"
    code, _, err = run(
        capsys,
        ["probability", "--state", "coherent:0.5", "--points", "21", "--out", str(out_path)],
    )
    assert code == 0 and err == ""

    meta = json.loads((tmp_path / "density.csv.meta.json").read_text())
    assert meta["schema"] == 1 and meta["command"] == "probability"
    assert meta["state"] == "coherent:0.5"
    assert meta["grid"]["points"] == [21, 21]
    assert meta["warnings"] == []
    assert abs(meta["normalization_estimate"] - 1.0) < 1e-4

    lines = out_path.read_text().strip().split("\n")
    assert lines[0].startswith("#") and lines[1] == "x1,x2,P"
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])
    assert data.shape == (441, 3)
    assert np.all(data[:, 2] >= 0.0)

    # peak lands on the grid point nearest the coherent center (sqrt(2 theta) Re z, 0)
    center = (math.sqrt(2.0 * THETA) * 0.5, 0.0)
    peak = data[np.argmax(data[:, 2]), :2]
    axis = grid_axis(meta["grid"]["x1_range"][1], 21)
    want = (axis[np.argmin(np.abs(axis - center[0]))], axis[np.argmin(np.abs(axis - center[1]))])
    assert peak[0] == pytest.approx(want[0], abs=1e-12)
    assert peak[1] == pytest.approx(want[1], abs=1e-12)


def test_probability_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            ["probability", "--state", "coherent:0.3,0.4", "--points", "15", "--out", str(path)],
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()


def test_probability_ground_default_grid(capsys, tmp_path):
    out_path = tmp_path / "ground.csv"
    code, _, _ = run(capsys, ["probability", "--out", str(out_path)])
    assert code == 0
    meta = json.loads((tmp_path / "ground.csv.meta.json").read_text())
    assert meta["warnings"] == []
    assert abs(meta["normalization_estimate"] - 1.0) < 1e-4
    assert meta["grid"]["points"] == [61, 61]


def test_probability_unsafe_grid_still_emits(capsys, tmp_path):
    out_path = tmp_path / "wide.csv"
    code, _, err = run(
        capsys,
        ["probability", "--extent", "12", "--cutoff", "60", "--points", "5", "--out", str(out_path)],
    )
    assert code == 0
    assert "truncation-unsafe" in err
    meta = json.loads((tmp_path / "wide.csv.meta.json").read_text())
    assert len(meta["warnings"]) == 1
    data = [ln for ln in out_path.read_text().strip().split("\n")[2:]]
    assert len(data) == 25
    assert all(float(ln.split(",")[2]) >= 0.0 for ln in data)


def test_probability_state_file_roundtrip(capsys, tmp_path):
    rng = np.random.default_rng(9)
    arr = rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
    state_path = tmp_path / "psi.npy"
    np.save(state_path, arr)

    out_path = tmp_path / "file.csv"
    code, _, _ = run(
        capsys, ["probability", "--state", f"file:{state_path}", "--out", str(out_path)]
    )
    assert code == 0
    meta = json.loads((tmp_path / "file.csv.meta.json").read_text())
    assert meta["params"]["cutoff"] == 18

    code, _, err = run(
        capsys,
        ["probability", "--state", f"file:{state_path}", "--cutoff", "20",
         "--out", str(tmp_path / "clash.csv")],
    )
    assert code == 2 and "disagrees" in err

    code, _, err = run(
        capsys,
        ["probability", "--state", f"file:{tmp_path / 'absent.npy'}",
         "--out", str(tmp_path / "gone.csv")],
    )
    assert code == 2 and "cannot load" in err


# ---------------------------------------------------------------- evolve

def test_evolve_default_report(capsys):
    report = run_json(capsys, ["evolve"])
    assert report["command"] == "evolve" and report["system"] == "oscillator"
    assert report["state"] == "ground" and report["time"] == 10.0
    assert report["params"]["cutoff"] == 30
    assert report["norm_drift"] < 1e-10
    assert report["energy_drift"] < 1e-10
    assert report["continuity_residual"] < 1e-8
    assert 0.0 < report["overlap_abs"] <= 1.0 + 1e-12


def test_evolve_free_plane_wave_state(capsys):
    report = run_json(capsys, ["evolve", "--system", "free", "--state", "plane:0.2", "--time", "1.0"])
    assert report["state"] == "plane:0.2"
    assert report["params"]["cutoff"] == 40
    assert report["norm_drift"] < 1e-10
    assert report["notes"]  # the non-normalizability caveat travels with the data


def test_evolve_state_file(capsys, tmp_path):
    rng = np.random.default_rng(10)
    arr = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    state_path = tmp_path / "psi.npy"
    np.save(state_path, arr)
    report = run_json(
        capsys, ["evolve", "--system", "free", "--state", f"file:{state_path}", "--time", "2.0"]
    )
    assert report["params"]["cutoff"] == 12
    assert report["norm_drift"] < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_file_exits_2(capsys, tmp_path, bad):
    arr = np.eye(12, dtype=complex)
    arr[3, 5] = bad
    state_path = tmp_path / "bad.npy"
    np.save(state_path, arr)
    for argv in (
        ["probability", "--state", f"file:{state_path}", "--out", str(tmp_path / "bad.csv")],
        ["evolve", "--system", "free", "--state", f"file:{state_path}", "--time", "1.0"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert str(state_path) in err and "non-finite" in err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("argv,expected", [
    (["evolve", "--time", "nan"], 2),
    (["evolve", "--config", "{cfg}"], 2),
    (["evolve", "--time", "1e308", "--cutoff", "12", "--theta", "1"], 3),  # the phase w t overflows
    (["probability", "--extent", "nan", "--out", "{csv}"], 2),
    (["probability", "--extent", "1e308", "--cutoff", "30", "--points", "5", "--out", "{csv}"], 3),
    (["probability", "--extent", "0", "--points", "5", "--out", "{csv}"], 2),
    (["probability", "--config", "{extent_cfg}", "--points", "5", "--out", "{csv}"], 2),
    (["evolve", "--state", "excited:100,0"], 3),  # its diagonal misses the 30 x 30 block
    (["evolve", "--state", "excited:200,0"], 3),
    (["evolve", "--theta", "1e-20"], 3),  # the tail weight once divided 0 by 0
    (["check", "--suite", "oscillator-oracle", "--theta", "1e-20"], 3),
    (["spectrum", "--theta", "1e-155", "--cutoff", "4"], 2),  # hbar^2 / (2 m theta^2) overflows
    (["spectrum", "--theta", "1e-170", "--cutoff", "4"], 2),
    (["spectrum", "--theta", "1e200", "--cutoff", "4"], 2),  # each square overflows: refused by ModelParams
    (["check", "--suite", "povm", "--hbar", "1e200"], 2),
    (["probability", "--mass", "1e200", "--points", "5", "--out", "{csv}"], 2),
    (["spectrum", "--system", "free", "--kappa", "0.01", "--omega", "1e200"], 2),
    (["evolve", "--omega", "1e200"], 2),
    (["probability", "--state", "coherent:nan", "--points", "5", "--out", "{csv}"], 2),
    (["probability", "--state", "coherent:inf", "--points", "5", "--out", "{csv}"], 2),
    (["probability", "--state", "coherent:1e200", "--points", "5", "--out", "{csv}"], 2),
    (["evolve", "--state", "coherent:1e200"], 2),  # |z|^2 overflows
    (["probability", "--state", "plane:1e200", "--points", "5", "--out", "{csv}"], 2),
    (["spectrum", "--system", "free", "--kappa", "1e200"], 2),
    (["spectrum", "--config", "{kappa_text}"], 2),
    (["spectrum", "--config", "{kappa_null}"], 2),
    (["evolve", "--state", "coherent:nan"], 2),
    (["evolve", "--state", "coherent:inf"], 2),
    (["evolve", "--state", "coherent:1,nan"], 2),
    (["evolve", "--system", "free", "--state", "plane:nan"], 2),
    (["spectrum", "--system", "free", "--kappa", "nan,0"], 2),
    (["probability", "--state", "plane:nan", "--points", "5", "--out", "{csv}"], 2),
    (["probability", "--points", "5", "--theta", "1e-300", "--out", "{csv}"], 2),  # needs cutoff 3.04e+301
    (["probability", "--extent", "1e300", "--points", "5", "--out", "{csv}"], 2),  # needs cutoff inf
    (["check", "--suite", "oscillator-oracle", "--mass", "1e150", "--omega", "1e150"], 2),  # lambda_1 = inf
    (["spectrum", "--mass", "1e150", "--omega", "1e150"], 2),  # once a NaN Hermiticity defect, exit 3
    (["spectrum", "--hbar", "1e-160"], 2),  # theta lambda_1 / hbar^2 overflows
    (["spectrum", "--hbar", "1e-300"], 2),  # hbar^2 underflows: lambda_2 = 0
    (["check", "--suite", "oscillator-oracle", "--omega", "1e-300"], 2),  # (hbar m omega)^2 underflows
    (["probability", "--theta", "5e-324", "--mass", "0.1", "--cutoff", "40", "--points", "5", "--out", "{csv}"],
     2),  # the ground state's spread is infinite
    (["evolve", "--theta", "1e-300", "--mass", "1e-30"], 2),  # evolve reads no grid extent
    (["probability", "--theta", "5e-324", "--mass", "0.1", "--cutoff", "40", "--extent", "1", "--points", "5",
      "--out", "{csv}"], 3),  # alpha = -0.0: need N >= 1000
    (["check", "--suite", "oscillator-oracle", "--theta", "5e-324", "--mass", "0.1"], 3),  # alpha = -0.0
    (["check", "--suite", "oscillator-oracle", "--theta", "1e150"], 2),  # K_1 overflows
    (["check", "--suite", "oscillator-oracle", "--mass", "1e150"], 2),
    (["evolve", "--theta", "1e-160", "--cutoff", "1000"], 2),  # the Hamiltonian is refused before the state
    (["check", "--suite", "algebra", "--theta", "1e-300"], 2),  # (hbar/theta)^2 overflows
], ids=["time-nan", "config-time-nan", "time-overflow", "extent-nan", "extent-overflow",
        "extent-zero", "config-extent-zero", "excited-off-block", "excited-far-off-block",
        "tiny-theta-evolve", "tiny-theta-check", "theta-kinetic-overflow", "theta-squared-underflow",
        "theta-square-overflow", "hbar-square-overflow", "mass-square-overflow",
        "omega-square-overflow-free", "omega-square-overflow", "coherent-nan-probability",
        "coherent-inf-probability", "coherent-square-overflow-probability", "coherent-square-overflow",
        "plane-square-overflow", "kappa-square-overflow", "config-kappa-text", "config-kappa-null",
        "coherent-nan", "coherent-inf", "coherent-imag-nan", "free-kappa-nan", "spectrum-kappa-nan",
        "plane-nan", "tiny-theta-auto-cutoff", "huge-extent-auto-cutoff", "lambda1-overflow-oracle",
        "lambda1-overflow-spectrum", "alpha-overflow", "lambda2-underflow", "oracle-scale-underflow",
        "infinite-ground-spread", "evolve-reads-no-extent", "alpha-zero-advice", "alpha-zero-oracle",
        "k1-overflow-theta", "k1-overflow-mass", "evolve-refuses-hamiltonian-first", "momentum-scale-overflow"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the message is the only output
def test_non_finite_values_never_reach_the_output(capsys, tmp_path, argv, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema": 1, "time": NaN}')
    extent_cfg = tmp_path / "extent.json"
    extent_cfg.write_text('{"schema": 1, "extent": 0}')  # a zero extent once fell back to the default
    kappa_text = tmp_path / "kappa_text.json"
    kappa_text.write_text('{"schema": 1, "system": "free", "kappa": ["a", 1]}')
    kappa_null = tmp_path / "kappa_null.json"
    kappa_null.write_text('{"schema": 1, "system": "free", "kappa": [null, 1]}')
    argv = [a.format(cfg=cfg, extent_cfg=extent_cfg, kappa_text=kappa_text, kappa_null=kappa_null,
                     csv=tmp_path / "p.csv") for a in argv]
    code, out, err = run(capsys, argv)
    assert code == expected
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not list(tmp_path.glob("p.csv*"))  # neither the grid nor its sidecar


@pytest.mark.parametrize("flag", ["--omega", "--hbar"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_free_particle_takes_no_oscillator_scale(capsys, flag):
    # the oscillator refuses omega = 1e-300 (need N >= 1001) and hbar = 1e-300 (lambda_2 = 0); the free
    # particle's plane wave uses no closed form that takes them
    report = run_json(capsys, ["spectrum", "--system", "free", "--kappa", "0.01", flag, "1e-300"])
    assert report["params"][flag[2:]] == 1e-300 and math.isfinite(report["levels"][0]["interior_residual"])


# ---------------------------------------------------------------- imports

def test_commands_run_without_scipy():
    # the runtime needs numpy only: a fresh process that runs one command of each
    # kind must not have imported any scipy module
    code = textwrap.dedent("""
        import sys
        import tempfile
        from ncqm.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            out = ["--out", tmp + "/out"]  # keeps stdout for the module list
            for argv in (["spectrum", *out], ["evolve", *out],
                         ["probability", "--points", "11", "--out", tmp + "/p.csv"],
                         ["check", "--suite", "oscillator-oracle", *out]):
                assert main(argv) == 0, argv
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------- check

@pytest.mark.parametrize("suite", ["algebra", "symmetry", "continuity"])
def test_fast_suites_pass(capsys, suite):
    code, out, _ = run(capsys, ["check", "--suite", suite])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(row["pass"] for row in report["checks"])
    assert report["suite"] == suite


@pytest.mark.parametrize("suite", ["algebra", "symmetry"])
def test_fast_suites_pass_at_cutoff_400(capsys, suite):
    # the samples keep to the lowest 48 levels, so the roundoff residuals stop growing with the cutoff
    code, out, _ = run(capsys, ["check", "--suite", suite, "--cutoff", "400"])
    report = json.loads(out)
    assert code == 0 and report["passed"] and report["params"]["cutoff"] == 400


@pytest.mark.parametrize("suite,cutoff,least", [
    # symmetry's samples need two levels: on one, |0><0|, Lz vanishes and the breaking row reads 0
    ("algebra", 3, 4), ("continuity", 6, 7), ("symmetry", 2, 8), ("symmetry", 7, 8), ("povm", 6, 7),
])
def test_suites_refuse_a_cutoff_without_room_for_their_sample_states(capsys, suite, cutoff, least):
    code, out, err = run(capsys, ["check", "--suite", suite, "--cutoff", str(cutoff)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"use --cutoff {least} or more" in err


@pytest.mark.parametrize("theta", ["3", "100", "1e8"])
def test_oscillator_oracle_passes_at_large_theta(capsys, theta):
    # (1, 0) ranks floor(lam1 / lam2) + 2 (12th at theta = 3), beyond the 8 levels once read
    report = run_json(capsys, ["check", "--suite", "oscillator-oracle", "--theta", theta])
    assert report["passed"] and all(row["pass"] for row in report["checks"])


def test_oscillator_oracle_fails_finitely_without_a_tower(capsys, monkeypatch):
    helper = cli._oscillator_levels

    def tower_zero(h, levels):
        rows, notes = helper(h, levels)
        return [row for row in rows if row["n1"] == row["n2"]], notes

    monkeypatch.setattr(cli, "_oscillator_levels", tower_zero)
    code, out, _ = run(capsys, ["check", "--suite", "oscillator-oracle"])
    assert code == 1
    row = next(r for r in json.loads(out)["checks"] if r["name"] == "eigensolve_tower_envelope")
    assert not row["pass"] and row["value"] == 1.0
    assert "tower(s) [1, -1]" in row["note"]


_SUITE_CUTOFFS = {"algebra": 20, "continuity": 24, "symmetry": 16, "povm": 24, "oscillator-oracle": 30}


@pytest.mark.parametrize("given", [None, 32], ids=["default-cutoff", "cutoff-32"])
@pytest.mark.parametrize("suite", sorted(_SUITE_CUTOFFS))
def test_check_report_names_the_model_it_ran(capsys, suite, given):
    argv = ["check", "--suite", suite] + ([] if given is None else ["--cutoff", str(given)])
    report = run_json(capsys, argv)
    assert report["params"] == asdict(ModelParams(theta=THETA, cutoff=given or _SUITE_CUTOFFS[suite]))
    assert "config" not in report


def test_check_report_is_self_describing(capsys):
    code, out, _ = run(capsys, ["check", "--suite", "algebra", "--seed", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 3
    for row in report["checks"]:
        assert set(row) >= {"name", "value", "tolerance", "pass"}
        assert row["value"] < row["tolerance"]
