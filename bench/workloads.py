"""Seeded inputs, job lists and the correctness gate of the ncqm benchmark.

Every random state, time and evaluation point is drawn here from the workload
seed; the package only ever receives the generated inputs.  Each job calls the
package through module attributes looked up at call time (``lib.dynamics.evolve``
and so on), so the tracer in ``tracing.py`` sees every call once it has patched
those attributes.

A job is one package result with its checks.  It fails when it raises or when a
check value is not within its limit (NaN included).  The limits are the ones the
repository's own suites and acceptance tests use.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("spectral", "density", "cli")

# Sizes.  "full" is what the benchmark measures; "tiny" only exists so the smoke
# test can run every code path in seconds.  The full sizes were chosen so one job
# list takes a few seconds with one BLAS thread on a 2-CPU x86-64 box, which
# leaves room for several repetitions inside one measured run.
SIZES = {
    "full": {
        "theta": 0.1,
        "spectral_cutoffs": {"oscillator": 32, "free": 28, "potential": 28},
        "spectral_levels": 40,
        "evolve_times": 16,
        "grid_points": {"ground": 61, "coherent": 41},
        "pointwise": 20,
        "povm_cutoffs": (20, 24),
        "identity": {"cutoff": 24, "points": 21, "span": 5},
    },
    "tiny": {
        "theta": 1.0,
        "spectral_cutoffs": {"oscillator": 12, "free": 8, "potential": 8},
        "spectral_levels": 10,
        "evolve_times": 3,
        "grid_points": {"ground": 9, "coherent": 9},
        "pointwise": 3,
        "povm_cutoffs": (10,),
        "identity": {"cutoff": 10, "points": 13, "span": 3},
    },
}

COHERENT_LABEL = 1.0 + 0.5j  # the density workload's coherent state, as in `--state coherent:1+0.5j`

# The cli workload: one fresh process per command, in this order.
CLI_COMMANDS = {
    "full": [
        ["spectrum"],
        ["spectrum", "--system", "free", "--kappa", "0.2"],
        ["evolve"],
        ["evolve", "--state", "excited:1,0"],
        ["probability", "--state", "coherent:0.5", "--points", "21"],
        ["probability", "--state", "ground", "--points", "41"],
        ["check", "--suite", "algebra"],
        ["check", "--suite", "symmetry"],
        ["check", "--suite", "continuity"],
        ["check", "--suite", "oscillator-oracle"],
    ],
    "tiny": [
        ["spectrum", "--theta", "1.0", "--cutoff", "12"],
        ["spectrum", "--system", "free", "--kappa", "0.2", "--cutoff", "12"],
        ["evolve", "--theta", "1.0", "--cutoff", "12"],
        ["probability", "--state", "coherent:0.5", "--points", "11"],
        ["check", "--suite", "algebra", "--cutoff", "10"],
    ],
}

# Limits, taken from the repository's suites and acceptance tests.
NORM_DRIFT = 1e-10          # evolve: norm drift
CONTINUITY = 1e-8           # continuity_residual (check --suite continuity)
EIGEN_RESIDUAL = 1e-8       # interior eigen-relation (check --suite oscillator-oracle)
ORTHONORMAL = 1e-12         # eigenstate Gram matrix (test_spectrum_ascending_and_orthonormal)
TOWER_ENVELOPE = 0.1        # eigensolve_tower_envelope
PSD_VIOLATION = 1e-12       # check --suite povm
SERIES_VS_MATRIX = 1e-10    # check --suite povm
IDENTITY_QUADRATURE = 1e-3  # check --suite povm
GRID_NORMALIZATION = 1e-2   # probability grid normalization estimate
DENSITY_CLOSED_FORM = 1e-8  # acceptance criterion 4, pointwise series vs closed form
POST_NORM = 1e-12           # test_post_measurement_normalizes
BOUNDARY_WEIGHT_MAX = 0.05  # the CLI's spectrum filter


# ---------------------------------------------------------------- gate

@dataclass
class Gate:
    """Counts attempted and failed jobs, times each job, keeps the first failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    log: list = field(default_factory=list)  # (job name, seconds), in run order

    def run(self, name: str, job) -> object:
        """Run `job()`, which returns (result, [(label, value, limit), ...])."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result, rows = job()
        except Exception as exc:  # a raising job is a failed job, never a crash
            self.log.append((name, time.perf_counter() - t0))
            self._fail(f"{name}: raised {type(exc).__name__}: {exc}")
            return None
        self.log.append((name, time.perf_counter() - t0))
        bad = [f"{label}={value!r} (limit {limit})" for label, value, limit in rows
               if not value <= limit]
        if bad:
            self._fail(f"{name}: " + ", ".join(bad))
        return result

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def evolve_rows(psi0, psi_t) -> list:
    """Checks of one evolved state: the norm is conserved."""
    return [("norm_drift", abs(float(psi_t.norm) - float(psi0.norm)), NORM_DRIFT)]


# ---------------------------------------------------------------- inputs

def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _random_matrix(rng: np.random.Generator, cutoff: int, margin: int = 6) -> np.ndarray:
    """Dense complex matrix supported below level cutoff - margin, HS-normalized."""
    top = max(cutoff - margin, 2)
    out = np.zeros((cutoff, cutoff), dtype=complex)
    out[:top, :top] = rng.standard_normal((top, top)) + 1j * rng.standard_normal((top, top))
    return out / np.linalg.norm(out)


def _disc_points(rng: np.random.Generator, count: int, radius: float, center: complex = 0.0):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return [complex(center + rk * complex(math.cos(pk), math.sin(pk))) for rk, pk in zip(r, phi)]


def _auto_cutoff(extent: float, theta: float) -> int:
    """The CLI's automatic cutoff for a grid of half-width `extent`."""
    return max(math.ceil(3.0 * extent * extent / theta) + 8, 8)


def make_inputs(lib, workload: str, seed: int, size: str) -> dict:
    """Everything a workload's job list needs, drawn from the seed."""
    cfg = SIZES[size]
    theta = cfg["theta"]
    rng = _rng(seed, workload)
    if workload == "spectral":
        hams = []
        for kind, cutoff in cfg["spectral_cutoffs"].items():
            hams.append({
                "kind": kind,
                "cutoff": cutoff,
                "kappa": complex(rng.uniform(0.05, 1.8 / math.sqrt(cutoff)) * np.exp(2j * math.pi * rng.uniform())),
                "randoms": [_random_matrix(rng, cutoff) for _ in range(2)],
                "times": rng.uniform(0.0, 10.0, cfg["evolve_times"]).tolist(),
            })
        return {"theta": theta, "levels": cfg["spectral_levels"], "hamiltonians": hams}
    if workload == "density":
        params = lib.core.ModelParams(theta=theta, cutoff=2)
        _, lam2 = lib.oscillator.lambdas(params)
        s = theta * lam2 / params.hbar ** 2
        extent_ground = 4.5 * math.sqrt(theta / (s * (2.0 - s)))
        extent_coh = math.sqrt(2.0 * theta) * abs(COHERENT_LABEL) + 5.0 * math.sqrt(theta)
        grids = [
            {"state": "ground", "extent": extent_ground, "cutoff": _auto_cutoff(extent_ground, theta),
             "points": cfg["grid_points"]["ground"],
             "pointwise": _disc_points(rng, cfg["pointwise"], 2.0)},
            {"state": "coherent", "extent": extent_coh, "cutoff": _auto_cutoff(extent_coh, theta),
             "points": cfg["grid_points"]["coherent"],
             "pointwise": _disc_points(rng, cfg["pointwise"], 2.0, COHERENT_LABEL)},
        ]
        povm = [{"cutoff": n, "zs": _disc_points(rng, 3, 1.2),
                 "randoms": [_random_matrix(rng, n) for _ in range(2)]}
                for n in cfg["povm_cutoffs"]]
        return {"theta": theta, "grids": grids, "povm": povm, "identity": dict(cfg["identity"])}
    if workload == "cli":
        seeds = rng.integers(0, 2**31 - 1, len(CLI_COMMANDS[size])).tolist()
        return {"commands": [cmd + ["--seed", str(s)] for cmd, s in zip(CLI_COMMANDS[size], seeds)]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- spectral

def _spectrum_rows(lib, h, res, kind: str) -> list:
    vals = np.asarray(res.eigenvalues)
    vecs = np.array([np.asarray(s.op).reshape(-1) for s in res.eigenstates])
    gram = vecs.conj() @ vecs.T
    rows = [
        ("ascending", float(-np.min(np.diff(vals), initial=0.0)), 1e-12),
        ("orthonormal", float(np.max(np.abs(gram - np.eye(len(vals))))), ORTHONORMAL),
        ("eigen_residual", max(lib.dynamics.interior_residual(h, s, e, 0)
                               for s, e in zip(res.eigenstates, vals)), EIGEN_RESIDUAL),
    ]
    if kind == "oscillator":
        params = h.ctx.params
        keep = [i for i, w in enumerate(res.boundary_weights) if w < BOUNDARY_WEIGHT_MAX][:8]
        want = {0: lib.oscillator.energy(params, 0, 0), 1: lib.oscillator.energy(params, 0, 1),
                -1: lib.oscillator.energy(params, 1, 0)}
        found = {}
        for i in keep:
            tower = round(float(res.lz_expectations[i]) / params.hbar)
            if tower in want and tower not in found:
                found[tower] = float(vals[i])
        worst = (max(abs(found[t] - want[t]) / want[t] for t in want)
                 if set(found) == set(want) else math.inf)
        rows.append(("tower_envelope", worst, TOWER_ENVELOPE))
    return rows


def _spec(lib, kind: str, theta: float):
    if kind != "potential":
        return lib.dynamics.HamiltonianSpec(kind)
    # x1^2 as a normal-ordered table, theta/2 (b^2 + bdag^2 + 2 bdag b + 1): v02 != 0,
    # so H is not rotation invariant (the table check --suite continuity builds)
    table = np.zeros((3, 3))
    table[0, 0] = theta / 2.0
    table[1, 1] = theta
    table[0, 2] = table[2, 0] = theta / 2.0
    return lib.dynamics.HamiltonianSpec("potential", potential_coeffs=table)


def run_spectral(lib, inp: dict, gate: Gate, tracer=None) -> None:
    core, dyn = lib.core, lib.dynamics
    for ham in inp["hamiltonians"]:
        kind = ham["kind"]
        _set_job(tracer, f"spectral/{kind}")
        ctx = core.build_fock(core.ModelParams(theta=inp["theta"], cutoff=ham["cutoff"]))
        h = dyn.hamiltonian(ctx, _spec(lib, kind, inp["theta"]))

        def solve():
            res = dyn.solve_spectrum(h, inp["levels"])
            return res, _spectrum_rows(lib, h, res, kind)

        gate.run(f"spectral/{kind}/solve_spectrum", solve)
        states = [
            ("ground", lambda: lib.oscillator.ground_state(ctx)),
            ("plane", lambda: dyn.plane_wave(ctx, ham["kappa"])[0].normalized()),
        ] + [(f"random{i}", lambda m=m: core.QuantumState(m)) for i, m in enumerate(ham["randoms"])]
        for label, build in states:
            name = f"spectral/{kind}/{label}"
            psi0 = gate.run(f"{name}/state", lambda: (build(), []))
            if psi0 is None:
                continue
            gate.run(f"{name}/continuity",
                     lambda: (None, [("continuity", dyn.continuity_residual(psi0, h), CONTINUITY)]))
            for t in ham["times"]:
                def step(t=t):
                    psi_t = dyn.evolve(psi0, h, t)
                    return psi_t, evolve_rows(psi0, psi_t)

                gate.run(f"{name}/evolve t={t:.3f}", step)


# ---------------------------------------------------------------- density

def run_density(lib, inp: dict, gate: Gate, tracer=None) -> None:
    core, ms, osc = lib.core, lib.measurement, lib.oscillator
    theta = inp["theta"]
    for g in inp["grids"]:
        _set_job(tracer, f"density/grid-{g['state']}")
        ctx = core.build_fock(core.ModelParams(theta=theta, cutoff=g["cutoff"]))
        if g["state"] == "ground":
            psi = gate.run("density/ground/state", lambda: (osc.ground_state(ctx), []))
            exact = lambda z: osc.ground_probability(ctx.params, z)  # noqa: E731
        else:
            psi = gate.run("density/coherent/state", lambda: (ms.coherent_state_op(ctx, COHERENT_LABEL), []))
            exact = lambda z: math.exp(-abs(z - COHERENT_LABEL) ** 2) / (2.0 * math.pi * theta)  # noqa: E731
        if psi is None:
            continue
        ext = g["extent"]
        spec = ms.GridSpec((-ext, ext), (-ext, ext), (g["points"], g["points"]))

        def grid():
            pg = ms.probability_grid(ctx, psi, spec)
            return pg, [
                ("normalization", abs(pg.normalization_estimate - 1.0), GRID_NORMALIZATION),
                ("negative", float(-np.min(pg.values)), 0.0),
                ("unsafe_points", float(len(pg.warnings)), 0.0),
            ]

        gate.run(f"density/{g['state']}/probability_grid", grid)
        _set_job(tracer, f"density/points-{g['state']}")
        for z in g["pointwise"]:
            def point(z=z):
                p = ms.position_probability(ctx, psi, z)
                want = exact(z)
                return p, [("closed_form", abs(p - want) / want, DENSITY_CLOSED_FORM)]

            gate.run(f"density/{g['state']}/position_probability z={z:.3f}", point)

    for block in inp["povm"]:
        n = block["cutoff"]
        _set_job(tracer, f"density/povm-{n}")
        ctx = core.build_fock(core.ModelParams(theta=theta, cutoff=n))
        states = [core.QuantumState(m) for m in block["randoms"]]
        for z in block["zs"]:
            def element(z=z):
                pi = ms.povm_matrix(ctx, z)
                rows = [("psd_violation", max(0.0, -float(np.linalg.eigvalsh(pi)[0])), PSD_VIOLATION)]
                for psi in states:
                    v = np.asarray(psi.op).reshape(-1)
                    quad = float((v.conj() @ (pi @ v)).real)
                    series = ms.position_probability(ctx, psi, z)
                    rows.append(("series_vs_matrix", abs(quad - series) / max(series, 1e-300),
                                 SERIES_VS_MATRIX))
                return pi, rows

            gate.run(f"density/povm N={n} z={z:.3f}", element)

            def update(z=z):
                phi = ms.post_measurement(ctx, states[0], z)
                return phi, [("post_norm", abs(float(phi.norm_sq) - 1.0), POST_NORM)]

            gate.run(f"density/post_measurement N={n} z={z:.3f}", update)

    ident = inp["identity"]
    _set_job(tracer, "density/identity")
    ctx = core.build_fock(core.ModelParams(theta=theta, cutoff=ident["cutoff"]))

    def identity():
        r = ms.povm_identity_residual(ctx, 6.0 * math.sqrt(theta), points=ident["points"],
                                      span=ident["span"])
        return r, [("identity_quadrature", r, IDENTITY_QUADRATURE)]

    gate.run("density/povm_identity_residual", identity)


# ---------------------------------------------------------------- cli

ENTRY = "import sys; from ncqm.cli import main; sys.exit(main(sys.argv[1:]))"  # the `ncqm` console script


def cli_argv(cmd: list, out: Path) -> list:
    return cmd + ["--out", str(out)]


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def _sidecar(out: Path) -> Path:
    return Path(str(out) + ".meta.json")


def _clear(out: Path) -> Path:
    """Remove an earlier run's output, so a command that writes nothing cannot pass."""
    out.unlink(missing_ok=True)
    _sidecar(out).unlink(missing_ok=True)
    return out


def _cli_rows(cmd: list, code: int, out: Path, stderr: str = "") -> tuple[bytes, list]:
    """Checks of one CLI command; returns the output bytes (data and sidecar) and the rows."""
    if code != 0:
        return None, [(f"exit_code={code} [{stderr.strip()[-300:]}]", 1.0, 0.0)]
    rows = []
    data = out.read_bytes()
    blob = data
    if cmd[0] == "probability":
        meta_bytes = _sidecar(out).read_bytes()
        blob = data + b"\0" + meta_bytes
        meta = json.loads(meta_bytes, parse_constant=_reject_constant)
        rows.append(("normalization", abs(meta["normalization_estimate"] - 1.0), GRID_NORMALIZATION))
        values = [float(line.rsplit(",", 1)[1]) for line in data.decode().splitlines()[2:]]
        points = int(cmd[cmd.index("--points") + 1])
        rows.append(("grid_cells", float(len(values) != points * points), 0.0))
        rows.append(("non_finite_or_negative", float(sum(not (v >= 0.0 and math.isfinite(v)) for v in values)), 0.0))
        return blob, rows
    report = json.loads(data, parse_constant=_reject_constant)
    if cmd[0] == "evolve":
        rows.append(("norm_drift", report["norm_drift"], NORM_DRIFT))
        rows.append(("continuity", report["continuity_residual"], CONTINUITY))
    elif cmd[0] == "check":
        rows.append(("suite_failed", float(report["passed"] is not True), 0.0))
    elif cmd[0] == "spectrum":
        rows.append(("no_levels", float(not report["levels"]), 0.0))
    return blob, rows


def run_cli_subprocess(inp: dict, gate: Gate, outdir: Path, env: dict) -> list:
    """One fresh `ncqm` process per command; returns the output bytes per command."""
    outdir.mkdir(parents=True, exist_ok=True)
    blobs = []
    for i, cmd in enumerate(inp["commands"]):
        def job(cmd=cmd, out=_clear(outdir / f"{i}.out")):
            proc = subprocess.run([sys.executable, "-c", ENTRY, *cli_argv(cmd, out)], env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
            return _cli_rows(cmd, proc.returncode, out, proc.stderr)

        blobs.append(gate.run(f"cli/{i}/{' '.join(cmd)}", job))
    return blobs


def run_cli_inprocess(lib, inp: dict, gate: Gate, outdir: Path, codes: list, tracer=None) -> list:
    """The same commands through `ncqm.cli.main(argv)` in this process."""
    outdir.mkdir(parents=True, exist_ok=True)
    blobs = []
    for i, cmd in enumerate(inp["commands"]):
        _set_job(tracer, f"cli/{i}-{cmd[0]}")

        def job(cmd=cmd, out=_clear(outdir / f"{i}.out")):
            code = lib.cli.main(cli_argv(cmd, out))
            codes.append(code)
            return _cli_rows(cmd, code, out)

        blobs.append(gate.run(f"cli/{i}/{' '.join(cmd)}", job))
    return blobs


def digest(blobs: list) -> list:
    return [None if b is None else hashlib.sha256(b).hexdigest() for b in blobs]


def _set_job(tracer, job: str) -> None:
    if tracer is not None:
        tracer.job = job


RUNNERS = {"spectral": run_spectral, "density": run_density}
