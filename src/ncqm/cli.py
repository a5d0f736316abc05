"""Command-line surface: spectra, position densities, evolution reports, check suites.

Configuration comes from flags, optionally layered over a JSON config file
(``--config``, ``schema: 1``); flags win over the file, the file over built-in
defaults.  Identical configuration and seed produce byte-identical output
(caveat: a different BLAS build or thread count can move the last bits, so pin
NCQM_THREADS for cross-machine comparisons).

stdout and ``--out`` files carry data only; diagnostics go to stderr.  Every
report opens with ``schema``, ``command``, ``seed`` and ``params`` (the model it
ran, its cutoff included), and the povm suite runs at any cutoff.
Exit codes: 0 success (grids with truncation warnings included), 1 check suite
ran but found violations, 2 a usage-family error (UsageError and its subclasses),
3 any other package error (the numerical family), an OS error or out of memory.

NCQM_THREADS caps BLAS threading.  The package applies it on first import, so
it only takes effect when set before the interpreter loads numpy; the ``ncqm``
console script guarantees that order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import _thread_count
from .core import (
    ConfigurationError,
    FockContext,
    ModelParams,
    NcqmError,
    NumericalError,
    QuantumState,
    UsageError,
    build_fock,
    hs_inner,
)
from .dynamics import (
    HamiltonianSpec,
    boundary_defect_depth,
    continuity_residual,
    evolve,
    hamiltonian,
    interior_residual,
    plane_wave,
    spectrum_levels,
)
from .measurement import (
    GridSpec,
    coherent_state_op,
    coherent_vector,
    density_series,
    povm_identity_residual,
    probability_grid,
)
from .observables import angular_momentum, momentum_ops, position_ops, rotate, time_reverse
from .oscillator import (
    _named,
    energy,
    excited_state,
    ground_state,
    k_norms,
    ladder_ops,
    lambdas,
)

__all__ = ["main"]

_BOUNDARY_WEIGHT_MAX = 0.05  # spectra: levels above this are truncation artifacts
# input caps, checked before anything is built: the theta = 0 enumeration makes
# O(levels) rows, and a grid holds points^2 values and an N x points^2 product
_LEVELS_MAX = 10000
_POINTS_MAX = 1001


# ---------------------------------------------------------------- plumbing

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must hold a JSON object")
    if raw.get("schema") != 1:
        raise ConfigurationError("config file needs \"schema\": 1")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    return raw


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    opts = {key: default for key, (commands, default, _) in _FLAGS.items() if command in commands}
    cfg = _load_config(args.config) if args.config else {}
    foreign = sorted(set(cfg) - set(opts) - {"schema"})
    if foreign:  # a flag of another command, refused as argparse refuses it on the command line
        raise UsageError(f"config key {foreign[0]!r} does not apply to {command}")
    for key in opts:
        if cfg.get(key) is not None:
            opts[key] = _config_value(key, cfg[key])
    for key in opts:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    if opts["seed"] < 0:  # numpy's generators take no negative seed
        given = "config key 'seed'" if args.seed is None else "--seed"
        raise UsageError(f"{given} must be a non-negative integer, got {opts['seed']}")
    return opts


def _config_value(key: str, value):
    """A config value checked as its flag's: converted to the flag's type, or one of its choices.

    A value that does not convert, a JSON true or false for a typed key, a
    non-integral number for an integer key, anything but a string for a path, or
    a value outside the choices is a UsageError that names the key.
    """
    kwargs = _FLAGS[key][2]
    choices = kwargs.get("choices")
    if choices is not None and value not in choices:
        raise UsageError(f"config key {key!r} must be one of {'|'.join(choices)}, got {value!r}")
    kind = kwargs.get("type")
    if kind is None:
        return value
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if (converted is None or isinstance(value, bool)
            or (kind is int and isinstance(value, float) and converted != value)
            or (kind is str and not isinstance(value, str))):
        raise UsageError(f"config key {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return converted


def _as_complex(value, what: str) -> complex:
    """RE, "RE,IM", RE+IMj or a [RE, IM] pair of numbers; refused unless |z|^2 is a finite float."""
    z = None
    try:
        if isinstance(value, str):
            s = value.strip().replace(" ", "")
            z = complex(*map(float, s.split(",", 1))) if "," in s else complex(s)
        else:
            parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
            if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
                z = complex(*parts)
    except (ValueError, OverflowError):
        pass
    if z is None:
        raise UsageError(f"cannot parse {what} value {value!r}; use RE, \"RE,IM\", or RE+IMj")
    modulus = math.hypot(z.real, z.imag)
    if not math.isfinite(modulus * modulus):  # the rule ModelParams applies to its parameters
        raise UsageError(f"{what} value {value!r} must be finite, with |z| below about 1.34e154")
    return z


def _params(opts: dict, cutoff: int) -> ModelParams:
    return ModelParams(*(float(opts[k]) for k in ("theta", "hbar", "mass", "omega")), cutoff=int(cutoff))


def _cutoff(opts: dict, default: int) -> int:
    """--cutoff when given, else the command's default."""
    return int(opts["cutoff"]) if opts["cutoff"] is not None else default


def _header(command: str, opts: dict, params: ModelParams) -> dict:
    """The fields every report opens with: what ran, its seed and the model it ran on."""
    return {"schema": 1, "command": command, "seed": int(opts["seed"]), "params": asdict(params)}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(report: dict) -> str:
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError("the report holds NaN or inf, which JSON cannot carry; usually an input "
                             "overflowed double precision (such as a huge --extent)")


def _finite(opts: dict, key: str) -> float:
    value = float(opts[key])
    if not math.isfinite(value):
        raise UsageError(f"--{key} must be a finite number, got {value}")
    return value


# ---------------------------------------------------------------- states

def _parse_state_selector(raw: str) -> tuple[str, object]:
    s = str(raw).strip()
    head, _, rest = s.partition(":")
    head = head.strip().lower()
    if head == "ground":
        if rest:
            raise UsageError("ground selector takes no argument")
        return "ground", None
    if head == "excited":
        try:
            n1_s, n2_s = rest.split(",")
            n1, n2 = int(n1_s), int(n2_s)
        except ValueError:
            raise UsageError(f"excited selector wants excited:N1,N2 with integers, got {raw!r}")
        if n1 < 0 or n2 < 0:
            raise UsageError(f"excited selector wants non-negative integers, got {raw!r}")
        return "excited", (n1, n2)
    if head == "coherent":
        return "coherent", _as_complex(rest, "coherent label")
    if head == "plane":
        return "plane", _as_complex(rest, "plane-wave parameter")
    if head == "file":
        if not rest:
            raise UsageError("file selector wants file:PATH")
        return "file", rest
    raise UsageError(
        f"unknown state selector {raw!r}; use ground, excited:N1,N2, coherent:Z, plane:KAPPA, or file:PATH"
    )


def _load_state_file(path: str) -> np.ndarray:
    try:
        arr = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load state file {path}: {exc}")
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise UsageError(f"state file {path} must hold a square matrix, got shape {arr.shape}")
    arr = arr.astype(complex)
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"state file {path} holds non-finite (NaN or inf) entries")
    return arr


def _sigma_x(opts: dict) -> float:
    """Ground-state position spread sqrt(theta / (2s - s^2)), s = theta lam2 / hbar^2; ConfigurationError if infinite."""
    params = _params(opts, 2)
    _, lam2 = lambdas(params)
    s = params.theta * lam2 / params.hbar**2
    width = s * (2.0 - s)
    spread_sq = params.theta / width if width > 0.0 else math.inf
    if not math.isfinite(spread_sq):
        raise ConfigurationError(f"the ground state's position spread is not a finite float at {_named(params)}; "
                                 "pass --extent")
    return math.sqrt(spread_sq)


def _extent(kind: str, detail, opts: dict, cutoff: int | None) -> float:
    """The grid half-width: --extent when given, else a window that fits the state."""
    if opts.get("extent") is not None:
        return float(opts["extent"])
    theta = float(opts["theta"])
    if kind == "ground":
        return 4.5 * _sigma_x(opts)
    if kind == "excited":
        n1, n2 = detail
        return 4.5 * _sigma_x(opts) * math.sqrt(1.0 + n1 + n2)
    if kind == "coherent":
        return math.sqrt(2.0 * theta) * abs(detail) + 5.0 * math.sqrt(theta)
    if kind == "plane":
        return math.sqrt(theta * cutoff / 3.0)
    return 4.0 * math.sqrt(theta)  # file: generic window on the scale of the plane cell


def _auto_cutoff(extent: float, theta: float) -> int:
    """Cutoff covering the grid corner |z|^2 = extent^2 / theta with samples to spare."""
    corner = 3.0 * extent * extent / theta
    if not corner <= 1992.0:  # the cutoff below would exceed 2000
        raise ConfigurationError(
            f"grid extent {extent:g} would need cutoff {corner + 8:.3g}; shrink --extent or pass --cutoff"
        )
    return max(math.ceil(corner) + 8, 8)


def _build_state(kind: str, detail, opts: dict, default: int | None = None):
    """Resolve cutoff, build the context and the selected normalized state.

    Without --cutoff a file state takes its dimension, a plane wave 40, and the
    other states default, or when it is None a cutoff that fits the grid extent.
    Returns (ctx, state, extent, notes); state() builds the normalized state, so
    evolve can refuse its Hamiltonian first, as spectrum does.  The extent of a
    ground, excited or coherent state is None when default is given: only the
    grid reads it, and it gives none.  theta > 0 is checked here, not left to
    build_fock, because the default extent and cutoff divide by it first.
    """
    theta = float(opts["theta"])
    if theta <= 0.0:
        raise ConfigurationError("state construction needs theta > 0 (the operator realization "
                                 "of the plane degenerates in the commutative limit)")
    notes: list[str] = []

    if kind == "file":
        arr = _load_state_file(detail)
        cutoff = arr.shape[0]
        if _cutoff(opts, cutoff) != cutoff:
            raise UsageError(f"--cutoff {opts['cutoff']} disagrees with state file dimension {cutoff}")
        ctx = build_fock(_params(opts, cutoff))
        return ctx, QuantumState(arr).normalized, _extent(kind, detail, opts, cutoff), notes

    if kind == "plane":
        cutoff = _cutoff(opts, 40)
        ctx = build_fock(_params(opts, cutoff))
        notes.append("plane wave normalized over the truncated space; it is not "
                     "normalizable on the plane, so the grid normalization estimate "
                     "reflects the window, not unity")
        return ctx, lambda: plane_wave(ctx, detail)[0].normalized(), _extent(kind, detail, opts, cutoff), notes

    extent = None if default else _extent(kind, detail, opts, None)
    if default is None and opts["cutoff"] is None:
        default = _auto_cutoff(extent, theta)
    ctx = build_fock(_params(opts, _cutoff(opts, default)))
    if kind == "ground":
        return ctx, lambda: ground_state(ctx), extent, notes
    if kind == "excited":
        return ctx, lambda: excited_state(ctx, *detail), extent, notes
    return ctx, lambda: coherent_state_op(ctx, detail), extent, notes


def _random_interior_state(rng: np.random.Generator, cutoff: int, margin: int, least: int = 1) -> QuantumState:
    """Seeded dense random state on the lowest min(cutoff - margin, 48) levels, at least `least` of them.

    The cap keeps the roundoff residuals, which grow with the levels a sample reaches, flat in the cutoff.
    """
    top = min(cutoff - margin, 48)
    if top < least:
        raise UsageError(f"--cutoff {cutoff} leaves too little room for this suite's sample states, which need "
                         f"{least} or more levels {margin} below the cutoff; use --cutoff {margin + least} or more")
    block = rng.standard_normal((top, top)) + 1j * rng.standard_normal((top, top))
    return QuantumState(np.pad(block, (0, cutoff - top))).normalized()


# ---------------------------------------------------------------- spectrum

def _analytic_levels(params: ModelParams, count: int) -> list[tuple[float, float, int, int]]:
    """(energy, lz, n1, n2) for the count lowest oscillator levels, E then lz ascending.

    Shells n1 + n2 <= isqrt(2 count) hold more than count levels, and at theta = 0
    E grows with the shell.
    """
    depth = math.isqrt(2 * count)
    return sorted((energy(params, n1, n2), params.hbar * (n2 - n1), n1, n2)
                  for n1 in range(depth + 1) for n2 in range(depth + 1 - n1))[:count]


def _oscillator_levels(h, levels: int) -> tuple[list[dict], list[str]]:
    """The lowest levels below the boundary-weight threshold, each paired with its closed form.

    A truncated ground state is refused first, with ground_state's cutoff
    advice.  The levels are read off spectrum_levels until enough pass the
    filter, and each state is dropped as it goes past.  Truncation shifts
    levels by more than their spacing, so pairing by energy order alone
    misassigns them; the exact label -hbar k of each level names the tower
    m = n2 - n1 = -k (an oscillator sector), whose j-th level is
    E(j + max(-m, 0), j + max(m, 0)), ascending in j.  Returns (rows, notes).
    """
    ground_state(h.ctx)
    params = h.ctx.params
    kept = list(itertools.islice(((float(e), lz, float(w)) for e, _, lz, w in spectrum_levels(h)
                                  if w < _BOUNDARY_WEIGHT_MAX), levels))
    notes = []
    if len(kept) < levels:
        notes.append(f"only {len(kept)} levels below the boundary-weight threshold "
                     f"{_BOUNDARY_WEIGHT_MAX} at cutoff {params.cutoff}; raise --cutoff for more")
    notes.append("analytic pairing follows angular-momentum towers; delta reflects the "
                 "truncation shift (it contracts geometrically with the cutoff) and some "
                 "analytic levels may lack a clean numeric partner at coarse cutoffs")
    rows = []
    seen: dict[int, int] = {}
    for rank, (e_num, lz, weight) in enumerate(kept):
        m = round(lz / params.hbar)
        j = seen[m] = seen.get(m, -1) + 1
        n1, n2 = j + max(-m, 0), j + max(m, 0)
        e_ana = energy(params, n1, n2)
        rows.append({"index": rank, "energy": e_num, "lz": lz, "boundary_weight": weight,
                     "analytic_energy": e_ana, "delta": e_num - e_ana, "n1": n1, "n2": n2})
    return rows, notes


def _spectrum_oscillator(opts: dict) -> tuple[ModelParams, dict]:
    if opts["kappa"] is not None:
        raise UsageError("--kappa applies to --system free only")
    levels = int(opts["levels"])
    if levels < 1:
        raise UsageError(f"--levels must be positive, got {levels}")
    if levels > _LEVELS_MAX:
        raise UsageError(f"--levels is capped at {_LEVELS_MAX}, got {levels}")

    if float(opts["theta"]) == 0.0:
        params = _params({**opts, "theta": 0.0}, _cutoff(opts, 30))
        rows = [
            {"index": i, "energy": e, "lz": lz, "n1": n1, "n2": n2}
            for i, (e, lz, n1, n2) in enumerate(_analytic_levels(params, levels))
        ]
        notes = ["commutative limit: closed-form level enumeration "
                 "(the operator realization needs theta > 0)"]
    else:
        params = _params(opts, _cutoff(opts, 30))
        rows, notes = _oscillator_levels(hamiltonian(build_fock(params), HamiltonianSpec("oscillator")),
                                         levels)
    return params, {"system": "oscillator", "levels": rows, "notes": notes}


def _spectrum_free(opts: dict) -> tuple[ModelParams, dict]:
    if opts["kappa"] is None:
        raise UsageError("--system free needs --kappa")
    kappa = _as_complex(opts["kappa"], "kappa")
    ctx = build_fock(_params(opts, _cutoff(opts, 40)))
    h = hamiltonian(ctx, HamiltonianSpec("free"))
    psi, e_plane = plane_wave(ctx, kappa)
    depth = boundary_defect_depth(kappa, ctx.params.cutoff)
    residual = interior_residual(h, psi, e_plane, depth)
    row = {
        "kappa_re": kappa.real, "kappa_im": kappa.imag,
        "energy": e_plane, "interior_residual": residual, "mask_depth": depth,
    }
    notes = ["plane-wave eigen-residual is measured away from the last mask_depth "
             "levels, where truncating the exponential series necessarily bends the state"]
    return ctx.params, {"system": "free", "levels": [row], "notes": notes}


# one column order for every kind of report, not alphabetical; each kind keeps the columns it has
_CSV_COLUMNS = ("kappa_re", "kappa_im", "index", "energy", "lz", "analytic_energy", "delta",
                "boundary_weight", "n1", "n2", "interior_residual", "mask_depth")


def _spectrum_csv(report: dict) -> str:
    rows = report["levels"]
    lines = [f"# spectrum, system={report['system']}, "
             + ", ".join(f"{k}={v}" for k, v in sorted(report["params"].items()))]
    if not rows:
        return "\n".join(lines) + "\n"
    order = [k for k in _CSV_COLUMNS if k in rows[0]]
    lines.append(",".join(order))

    for row in rows:
        lines.append(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in order))
    return "\n".join(lines) + "\n"


def _run_spectrum(opts: dict) -> int:
    params, body = _spectrum_oscillator(opts) if opts["system"] == "oscillator" else _spectrum_free(opts)
    report = {**_header("spectrum", opts, params), **body}
    _emit(_spectrum_csv(report) if opts["format"] == "csv" else _json_text(report), opts["out"])
    return 0


# ---------------------------------------------------------------- probability

def _run_probability(opts: dict) -> int:
    if opts["out"] is None:
        raise UsageError("probability writes a CSV grid plus a JSON sidecar; pass --out PATH")
    points = int(opts["points"])
    if points > _POINTS_MAX:
        raise UsageError(f"--points is capped at {_POINTS_MAX}, got {points}")
    if opts["extent"] is not None and _finite(opts, "extent") <= 0.0:
        raise UsageError(f"--extent must be positive, got {opts['extent']}")
    kind, detail = _parse_state_selector(opts["state"])
    ctx, state, extent, notes = _build_state(kind, detail, opts)
    psi = state()

    grid = GridSpec((-extent, extent), (-extent, extent), (points, points))
    with np.errstate(over="ignore", invalid="ignore"):
        pg = probability_grid(ctx, psi, grid)  # a grid that overflows gives NaN, which _json_text refuses

    lines = ["# position density grid; rows scan x1, x2 varies fastest", "x1,x2,P"]
    for i in range(points):
        x1i = float(pg.x1[i])
        for j in range(points):
            lines.append(f"{x1i!r},{float(pg.x2[j])!r},{float(pg.values[i, j])!r}")

    meta = {
        **_header("probability", opts, ctx.params),
        "state": str(opts["state"]),
        "grid": {
            "x1_range": [-extent, extent],
            "x2_range": [-extent, extent],
            "points": [points, points],
            "ordering": "row-major, x2 fastest",
        },
        "normalization_estimate": pg.normalization_estimate,
        "warnings": list(pg.warnings),
        "notes": notes,
    }
    meta_text = _json_text(meta)  # refuses NaN before either file is written
    _emit("\n".join(lines) + "\n", opts["out"])
    _emit(meta_text, opts["out"] + ".meta.json")
    for w in pg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- evolve

def _run_evolve(opts: dict) -> int:
    t = _finite(opts, "time")
    system = str(opts["system"])
    state_raw = str(opts["state"])
    kind, detail = _parse_state_selector(state_raw)
    ctx, state, _, notes = _build_state(kind, detail, opts, 30)
    h = hamiltonian(ctx, HamiltonianSpec(system))
    psi0 = state()

    psi_t = evolve(psi0, h, t)
    e0 = hs_inner(psi0, h.apply(psi0)).real
    e1 = hs_inner(psi_t, h.apply(psi_t)).real
    report = {
        **_header("evolve", opts, ctx.params),
        "system": system,
        "state": state_raw,
        "time": t,
        "norm_initial": psi0.norm,
        "norm_final": psi_t.norm,
        "norm_drift": abs(psi_t.norm - psi0.norm),
        "energy_initial": e0,
        "energy_final": e1,
        "energy_drift": abs(e1 - e0),
        "overlap_abs": abs(hs_inner(psi0, psi_t)),
        "continuity_residual": continuity_residual(psi0, h),
        "notes": notes,
    }
    _emit(_json_text(report), opts["out"])
    return 0


# ---------------------------------------------------------------- check

def _check_row(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tolerance": tol, "pass": bool(value < tol)}


def _worst(states: list[QuantumState], residual) -> float:
    """max over the sample states of the Frobenius norm of residual(psi)."""
    return max(float(np.linalg.norm(residual(psi))) for psi in states)


def _commutator(s, t, psi: QuantumState) -> np.ndarray:
    """[S, T] psi as a matrix."""
    return s.apply(t.apply(psi)).op - t.apply(s.apply(psi)).op


def _suite_algebra(ctx: FockContext, rng: np.random.Generator) -> list[dict]:
    """Heisenberg algebra of the position and momentum superoperators.

    Commutator identities hold exactly on states supported away from the
    cutoff boundary, so residuals here are pure roundoff.
    """
    (x1, x2), (p1, p2) = position_ops(ctx), momentum_ops(ctx)
    theta, hbar = ctx.params.theta, ctx.params.hbar
    states = [_random_interior_state(rng, ctx.params.cutoff, 3) for _ in range(3)]

    pairs = [
        ("commutator_x1_x2", x1, x2, 1j * theta),
        ("commutator_x1_p1", x1, p1, 1j * hbar),
        ("commutator_x2_p2", x2, p2, 1j * hbar),
        ("commutator_x1_p2", x1, p2, 0.0),
        ("commutator_x2_p1", x2, p1, 0.0),
        ("commutator_p1_p2", p1, p2, 0.0),
    ]
    return [_check_row(name, _worst(states, lambda p: _commutator(s1, s2, p) - c * p.op), 1e-12)
            for name, s1, s2, c in pairs]


def _suite_continuity(ctx: FockContext, rng: np.random.Generator) -> list[dict]:
    """Probability transport identity for the free, oscillator, and table-potential flows."""
    theta = ctx.params.theta
    states = [_random_interior_state(rng, ctx.params.cutoff, 6) for _ in range(3)]

    # x1^2 as a normal-ordered coefficient table: theta/2 (b^2 + bdag^2 + 2 bdag b + 1)
    table = theta / 2.0 * np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])

    rows = []
    for name, spec in (
        ("continuity_free", HamiltonianSpec("free")),
        ("continuity_oscillator", HamiltonianSpec("oscillator")),
        ("continuity_quadratic_table", HamiltonianSpec("potential", potential_coeffs=table)),
    ):
        h = hamiltonian(ctx, spec)
        worst = max(continuity_residual(psi, h) for psi in states)
        rows.append(_check_row(name, worst, 1e-8))
    return rows


def _suite_symmetry(ctx: FockContext, rng: np.random.Generator) -> list[dict]:
    """Anti-unitary conjugation, rotations, and angular-momentum relations."""
    params = ctx.params
    (x1, x2), (p1, p2), lz = position_ops(ctx), momentum_ops(ctx), angular_momentum(ctx)
    h = hamiltonian(ctx, HamiltonianSpec("oscillator"))
    a1, a1d, a2, a2d = ladder_ops(ctx)
    # a one-level sample is |0><0|, which Lz annihilates, so time reversal could not break anything
    states = [_random_interior_state(rng, params.cutoff, 6, least=2) for _ in range(3)]

    def conj_residual(s, target):
        """max ||Theta(S(Theta psi)) - target(psi)|| over the sample states."""
        return _worst(states, lambda p: time_reverse(s.apply(time_reverse(p))).op - target(p))

    # the dense x1 and x2, so that the right products and the rotation stay independent of the band calculus
    one = QuantumState(np.eye(params.cutoff))
    x1_mat, x2_mat = x1.apply(one).op, x2.apply(one).op
    hbar = params.hbar
    rows = [
        _check_row("conjugation_x1_right_mult", conj_residual(x1, lambda p: p.op @ x1_mat), 1e-10),
        _check_row("conjugation_x2_right_mult", conj_residual(x2, lambda p: p.op @ x2_mat), 1e-10),
        _check_row("conjugation_p1_sign", conj_residual(p1, lambda p: -p1.apply(p).op), 1e-10),
        _check_row("conjugation_p2_sign", conj_residual(p2, lambda p: -p2.apply(p).op), 1e-10),
        _check_row("conjugation_lz_sign", conj_residual(lz, lambda p: -lz.apply(p).op), 1e-10),
        _check_row("lz_oscillator_commute", _worst(states, lambda p: _commutator(lz, h, p)), 1e-10),
        _check_row("lz_ladder_one_lowers", _worst(
            states, lambda p: _commutator(lz, a1d, p) + hbar * a1d.apply(p).op), 1e-10),
        _check_row("lz_ladder_two_raises", _worst(
            states, lambda p: _commutator(lz, a2d, p) - hbar * a2d.apply(p).op), 1e-10),
        _check_row("conjugation_exchanges_ladders", max(
            conj_residual(s, lambda p: -t.apply(p).op)
            for s, t in ((a1, a2), (a2, a1), (a1d, a2d), (a2d, a1d))), 1e-10),
    ]

    phi = 0.7
    rotated = rotate(QuantumState(x1_mat), phi).op
    target = math.cos(phi) * x1_mat + math.sin(phi) * x2_mat
    rows.append(_check_row(
        "rotation_mixes_positions",
        float(np.linalg.norm(rotated - target) / np.linalg.norm(x1_mat)), 1e-10))

    # conjugating the oscillator flow shifts it by exactly (m omega^2 theta / hbar) Lz
    shift = params.mass * params.omega**2 * params.theta / params.hbar
    worst = 0.0
    breaking = 0.0
    expected = 0.0
    for psi in states:
        h_psi = h.apply(psi).op
        conj_h = time_reverse(h.apply(time_reverse(psi))).op
        lz_psi = lz.apply(psi).op
        worst = max(worst, float(np.linalg.norm(conj_h - h_psi - shift * lz_psi)))
        breaking = max(breaking, float(np.linalg.norm(conj_h - h_psi) / np.linalg.norm(h_psi)))
        expected = max(expected, shift * float(np.linalg.norm(lz_psi) / np.linalg.norm(h_psi)))
    rows.append(_check_row("conjugation_shifts_oscillator_by_lz", worst, 1e-10))
    rows.append({
        "name": "time_reversal_breaking_positive",
        "value": breaking,
        "tolerance": 0.0,
        "pass": bool(breaking > 0.0 and breaking > 0.5 * expected),
    })
    return rows


def _suite_povm(ctx: FockContext, rng: np.random.Generator) -> list[dict]:
    """Positivity, the projector POVM against the derivative series, and the resolution of identity.

    pi_z is left multiplication by |z><z| / (2 pi theta), so its spectrum is that
    of the N x N projector term and <psi|pi_z|psi> = ||<z|psi||^2 / (2 pi theta).
    """
    cutoff = ctx.params.cutoff
    cell = 2.0 * math.pi * ctx.params.theta

    v = coherent_vector(cutoff, 0.7 + 0.2j)
    min_eig = float(np.linalg.eigvalsh(np.outer(v, v.conj()) / cell)[0])
    rows = [_check_row("psd_violation", max(0.0, -min_eig), 1e-12)]

    # the series oracle refuses dense states reaching about level 66 (their terms cancel below roundoff)
    # and sums as many terms as row 0 is long, at most 200, so every sample stays below level 48
    low = min(cutoff, 48)
    states = [_random_interior_state(rng, cutoff, 6) for _ in range(2)]
    coherent = coherent_state_op(build_fock(replace(ctx.params, cutoff=low)), 0.3).op
    states.append(QuantumState(np.pad(coherent, (0, cutoff - low))))
    worst = 0.0
    for z in (0.0, 0.4 - 0.3j, 1.1 + 0.2j):
        v = coherent_vector(cutoff, z)
        for psi in states:
            quad = float(np.linalg.norm(v.conj() @ psi.op) ** 2) / cell
            series = density_series(ctx, psi, z)
            worst = max(worst, abs(quad - series) / max(series, 1e-300))
    rows.append(_check_row("series_vs_matrix_agreement", worst, 1e-10))

    residual = povm_identity_residual(ctx, 6.0 * math.sqrt(ctx.params.theta), points=61, span=5)
    rows.append(_check_row("identity_quadrature_low_levels", residual, 1e-3))
    return rows


def _suite_oscillator_oracle(ctx: FockContext, rng: np.random.Generator) -> list[dict]:
    """Closed-form oscillator layer against itself, its excited states and the spectrum."""
    params = ctx.params
    hbar, m, w, theta = params.hbar, params.mass, params.omega, params.theta
    lam1, lam2 = lambdas(params)
    k1, k2 = k_norms(params)
    scale = hbar * m * w
    if not 0.0 < scale * scale < math.inf:
        raise ConfigurationError(f"(hbar m omega)^2, the scale of the lambda identities, is not a positive "
                                 f"finite float at {_named(params)}")

    rows = []
    rows.append(_check_row(
        "lambda_product_identity",
        abs(lam1 * lam2 - (hbar * m * w) ** 2) / (hbar * m * w) ** 2, 1e-12))
    rows.append(_check_row(
        "lambda_difference_identity",
        abs((lam1 - lam2) - m**2 * w**2 * theta) / max(m**2 * w**2 * theta, hbar * m * w), 1e-12))
    radical = math.hypot(2.0 * hbar, m * w * theta)
    a_direct = 2.0 * math.log(2.0 * hbar / (radical + m * w * theta))  # e^alpha = (2 hbar / (R + m w theta))^2
    a_cross = -math.log1p(theta * lam1 / hbar**2)
    rows.append(_check_row(
        "alpha_cross_consistency", abs(a_direct - a_cross) / (abs(a_cross) or 1.0), 1e-12))  # absolute at 0
    rows.append(_check_row(
        "k_ratio_identity", abs(math.sqrt(k2 / k1) - lam2 / lam1) / (lam2 / lam1), 1e-12))

    psi0 = ground_state(ctx)
    a1, a1d, a2, a2d = ladder_ops(ctx)
    rows.append(_check_row(
        "ground_annihilated",
        max(a1.apply(psi0).norm, a2.apply(psi0).norm), 1e-12))

    h = hamiltonian(ctx, HamiltonianSpec("oscillator"))
    rows.append(_check_row(
        "ground_eigen_interior", interior_residual(h, psi0, energy(params, 0, 0), 3), 1e-8))
    worst = 0.0
    for n1, n2 in ((1, 0), (0, 1), (1, 1)):
        psi = excited_state(ctx, n1, n2)
        worst = max(worst, interior_residual(h, psi, energy(params, n1, n2), 3))
    rows.append(_check_row("excited_eigen_interior", worst, 1e-6))

    # (1, 0), the lowest level of tower -1, has closed-form rank floor(lam1 / lam2) + 2; about N
    # levels lie below it at cutoff N, and taking min() before floor() keeps an inf ratio out
    cutoff = params.cutoff
    levels, _ = _oscillator_levels(h, min(cutoff, max(8, math.floor(min(cutoff, lam1 / lam2)) + 2)))
    tops = ((0, 0), (0, 1), (1, 0))  # the lowest levels of the towers 0, 1 and -1
    paired = {(row["n1"], row["n2"]): row for row in levels}
    missing = [n2 - n1 for n1, n2 in tops if (n1, n2) not in paired]
    worst = 1.0 if missing else max(abs(paired[t]["delta"]) / paired[t]["analytic_energy"] for t in tops)
    row = _check_row("eigensolve_tower_envelope", worst, 0.1)
    row["note"] = ("lowest level of the angular-momentum towers 0 and +/-1 against the "
                   "closed forms; the gap is the truncation shift, which contracts "
                   "geometrically with the cutoff, so the envelope is deliberately coarse. "
                   "Precision validation is the interior-residual checks above.")
    if missing:
        row["note"] += f" No level of tower(s) {missing} passed the boundary filter; a missing tower reads 1."
    rows.append(row)
    return rows


_SUITES = {  # each suite's runner and its default cutoff
    "algebra": (_suite_algebra, 20),
    "continuity": (_suite_continuity, 24),
    "symmetry": (_suite_symmetry, 16),
    "povm": (_suite_povm, 24),
    "oscillator-oracle": (_suite_oscillator_oracle, 30),
}


def _run_check(opts: dict) -> int:
    suite = opts["suite"]
    if suite is None:
        raise UsageError(f"check needs --suite ({'|'.join(sorted(_SUITES))})")
    runner, default = _SUITES[suite]
    ctx = build_fock(_params(opts, _cutoff(opts, default)))
    checks = runner(ctx, np.random.default_rng(int(opts["seed"])))
    passed = all(row["pass"] for row in checks)
    report = {**_header("check", opts, ctx.params), "suite": suite, "checks": checks, "passed": passed}
    _emit(_json_text(report), opts["out"])
    return 0 if passed else 1


# ---------------------------------------------------------------- entry point

_COMMANDS = {  # each subcommand's runner and help
    "spectrum": (_run_spectrum, "energy levels with angular momentum and analytic comparison"),
    "probability": (_run_probability, "position density on a grid, CSV plus JSON sidecar"),
    "evolve": (_run_evolve, "evolve a state and report conservation diagnostics"),
    "check": (_run_check, "run an invariant suite"),
}
_ALL = tuple(_COMMANDS)

# Every flag once: the commands that take it, its default (None: the command or
# the state picks one) and its argparse keywords.  The parser, each command's
# defaults, the config keys (all but config itself) and the type of each config
# value come from here.
_FLAGS = {
    "theta": (_ALL, 0.1, {"type": float, "help": "non-commutativity scale"}),
    "hbar": (_ALL, 1.0, {"type": float, "help": "Planck constant"}),
    "mass": (_ALL, 1.0, {"type": float, "help": "particle mass"}),
    "omega": (_ALL, 1.0, {"type": float, "help": "oscillator frequency"}),
    "cutoff": (_ALL, None, {"type": int, "help": "Fock-space truncation level"}),
    "seed": (_ALL, 0, {"type": int, "help": "seed for sampled states"}),
    "out": (_ALL, None, {"type": str, "help": "output file (default stdout)"}),
    "format": (("spectrum",), "json", {"choices": ("json", "csv"), "help": "output format"}),
    "config": (_ALL, None, {"metavar": "FILE", "help": "JSON config file (schema 1); flags win"}),
    "system": (("spectrum", "evolve"), "oscillator",
               {"choices": ("oscillator", "free"), "help": "the Hamiltonian"}),
    "levels": (("spectrum",), 10, {"type": int, "help": "number of levels to report"}),
    "kappa": (("spectrum",), None, {"help": "plane-wave parameter for --system free (complex)"}),
    "state": (("probability", "evolve"), "ground",
              {"help": "ground | excited:N1,N2 | coherent:Z | plane:KAPPA | file:PATH"}),
    "extent": (("probability",), None, {"type": float, "help": "grid half-width (default fits the state)"}),
    "points": (("probability",), 61, {"type": int, "help": "grid points per axis"}),
    "time": (("evolve",), 10.0, {"type": float, "help": "evolution time"}),
    "suite": (("check",), None, {"choices": tuple(sorted(_SUITES)), "help": "the invariant suite"}),
}

_CONFIG_KEYS = {"schema", *_FLAGS} - {"config"}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a path string"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncqm",
        description="Quantum mechanics on the non-commutative plane: spectra, "
                    "position densities, evolution reports, and invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for key, (commands, default, kwargs) in _FLAGS.items():
            if command in commands:
                shown = "" if default is None else f" (default {default})"
                sp.add_argument(f"--{key}", **{**kwargs, "help": kwargs["help"] + shown})
    return parser


def main(argv=None) -> int:
    raw_threads = os.environ.get("NCQM_THREADS")
    if raw_threads is not None and _thread_count(raw_threads) is None:
        print(f"error: NCQM_THREADS must be a positive integer, got {raw_threads!r}", file=sys.stderr)
        return 2

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2

    try:
        return _COMMANDS[args.command][0](_resolve(args, args.command))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NcqmError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
