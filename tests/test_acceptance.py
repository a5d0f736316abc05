"""Headline acceptance battery.

Each test pins one end-to-end guarantee at a fixed tolerance and prints a
single PASS/FAIL line with the measured value next to the bound, so a plain
test run doubles as a numerical report.  Tolerances are stated in the test
bodies, not derived at runtime; seeds are fixed, so every number here is
reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

from ncqm import (
    HamiltonianSpec,
    ModelParams,
    QuantumState,
    alpha,
    bogoliubov_transform,
    boundary_defect_depth,
    build_fock,
    continuity_residual,
    energy,
    evolve,
    ground_probability,
    ground_state,
    hamiltonian,
    hs_inner,
    interior_residual,
    k_norms,
    lambdas,
    plane_wave,
    position_probability,
    solve_spectrum,
    time_reverse,
)
from ncqm.cli import main
from conftest import interior_state


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}  {detail}")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# ------------------------------------------------------------------ 1

def test_criterion_1_commutator_algebra(capsys):
    """All position/momentum commutator identities on states below level 17 at N=20."""
    start = time.perf_counter()
    code, rep = run_cli(capsys, ["check", "--suite", "algebra", "--cutoff", "20"])
    elapsed = time.perf_counter() - start
    worst = max(row["value"] for row in rep["checks"])
    ok = code == 0 and worst < 1e-12 and elapsed < 10.0
    report(1, "commutator algebra", ok,
           f"worst residual {worst:.3e} < 1e-12 on {len(rep['checks'])} identities, "
           f"runtime {elapsed:.1f}s < 10s")
    assert code == 0
    assert worst < 1e-12
    assert elapsed < 10.0


# ------------------------------------------------------------------ 2

def test_criterion_2_oscillator_spectrum(capsys):
    """Numeric eigenvalues against the two-frequency closed form, N=160, n1+n2 <= 4.

    The bound is set by truncation, not by the solver.  The exact ground state
    is e^{alpha b^dag b} with e^alpha = 0.905, whose weight above level N
    falls as 0.819^N (2.5e-3 at N=30), so the physical levels carry a
    truncation shift that contracts geometrically with the cutoff.  Worst
    relative error over the fifteen levels (no level lost to the boundary
    filter at N=140, 150 or 160):

        N=30   3.9e-1  ((1,1) and (2,2) lost to the boundary band)
        N=140  9.1e-7
        N=150  1.8e-7
        N=160  3.4e-8

    The check used to be pinned at cutoff 30 because the only eigensolver was
    the dense N^2 x N^2 eigh (O(N^6); about 6 GB at N=140).  solve_spectrum
    now splits the rotation-invariant oscillator into its angular-momentum
    sectors, blocks of size N - |k|, which makes N=160 a solve of about a
    second.  Only the cutoff moved: the 1e-6 bound, the level set,
    the 0.05 boundary filter, the 300 requested levels and the runtime bound
    are those of the cutoff-30 check.
    """
    start = time.perf_counter()
    ctx = build_fock(ModelParams(theta=0.1, cutoff=160))
    h = hamiltonian(ctx, HamiltonianSpec("oscillator"))
    res = solve_spectrum(h, 300)
    kept = [i for i, w in enumerate(res.boundary_weights) if w < 0.05]
    elapsed = time.perf_counter() - start

    towers: dict[int, list[float]] = {}
    for i in kept:
        towers.setdefault(int(round(res.lz_expectations[i])), []).append(
            float(res.eigenvalues[i])
        )

    rows = []
    for total in range(5):
        for n1 in range(total + 1):
            n2 = total - n1
            ana = energy(ctx.params, n1, n2)
            levels = towers.get(n2 - n1, [])
            rank = min(n1, n2)
            num = levels[rank] if rank < len(levels) else None
            rows.append((n1, n2, num, ana))

    missing = [(n1, n2) for n1, n2, num, _ in rows if num is None]
    rels = [abs(num - ana) / ana for _, _, num, ana in rows if num is not None]
    worst = max(rels)
    ok = not missing and worst < 1e-6 and elapsed < 120.0

    for n1, n2, num, ana in rows:
        if num is None:
            print(f"  ({n1},{n2})  analytic {ana:.6f}  numeric: none below the "
                  "boundary-weight threshold")
        else:
            print(f"  ({n1},{n2})  analytic {ana:.6f}  numeric {num:.6f}  "
                  f"rel {abs(num - ana) / ana:.3e}")
    report(2, "oscillator spectrum at cutoff 160", ok,
           f"worst relative error {worst:.3e} vs 1e-6, {len(missing)} of {len(rows)} "
           f"levels unidentifiable {missing}, runtime {elapsed:.1f}s < 120s")
    assert elapsed < 120.0
    assert res.eigenvalues[kept[0]] == pytest.approx(1.00124922, rel=0.05)
    assert not missing, f"levels {missing} lost to the truncation boundary at cutoff 160"
    assert worst < 1e-6


# ------------------------------------------------------------------ 3

def test_criterion_3_commutative_limit():
    """At theta = 1e-8 the closed forms collapse to the isotropic oscillator."""
    p = ModelParams(theta=1e-8, cutoff=4)
    worst_e = 0.0
    for n1 in range(4):
        for n2 in range(4 - n1):
            iso = p.hbar * p.omega * (n1 + n2 + 1)
            worst_e = max(worst_e, abs(energy(p, n1, n2) - iso) / iso)

    mw_h = p.mass * p.omega / p.hbar
    center = ground_probability(p, 0.0)
    worst_d = abs(center - mw_h / math.pi) / (mw_h / math.pi)
    for r in (0.2, 0.5, 1.0, 1.6):
        shape = ground_probability(p, r / math.sqrt(2.0 * p.theta)) / center
        want = math.exp(-mw_h * r * r)
        worst_d = max(worst_d, abs(shape - want) / want)

    ok = worst_e < 1e-6 and worst_d < 1e-5
    report(3, "commutative limit", ok,
           f"energy vs isotropic ladder {worst_e:.3e} < 1e-6, "
           f"density vs Gaussian {worst_d:.3e} < 1e-5")
    assert worst_e < 1e-6
    assert worst_d < 1e-5


# ------------------------------------------------------------------ 4

def test_criterion_4_ground_density_series_vs_closed_form():
    """Derivative-series density equals the closed-form Gaussian on |z| <= 2."""
    ctx = build_fock(ModelParams(theta=0.1, cutoff=120))
    psi0 = ground_state(ctx)
    worst = 0.0
    for radius in (0.0, 0.7, 1.3, 2.0):
        for phase in (1.0, np.exp(0.6j), np.exp(2.1j)):
            z = radius * phase
            want = ground_probability(ctx.params, z)
            got = position_probability(ctx, psi0, z)
            worst = max(worst, abs(got - want) / want)
            if radius == 0.0:
                break

    confining = build_fock(ModelParams(theta=0.1, omega=1e6, cutoff=28))
    psi_c = ground_state(confining)
    center = position_probability(confining, psi_c, 0.0)
    worst_c = 0.0
    for z in (0.5, 1.2, 2.0, 1.0 + 1.0j):
        shape = position_probability(confining, psi_c, z) / center
        want = math.exp(-abs(z) ** 2)  # e^{-r^2 / 2 theta} in dimensionless z
        worst_c = max(worst_c, abs(shape - want) / want)

    ok = worst < 1e-8 and worst_c < 1e-4
    report(4, "ground density series vs closed form", ok,
           f"pointwise {worst:.3e} < 1e-8 on |z| <= 2, "
           f"confining-limit shape {worst_c:.3e} < 1e-4")
    assert worst < 1e-8
    assert worst_c < 1e-4


# ------------------------------------------------------------------ 5

def test_criterion_5_free_plane_wave():
    """Truncated plane wave: interior eigen-relation, energy, flat density."""
    ctx = build_fock(ModelParams(theta=0.1, cutoff=40))
    h = hamiltonian(ctx, HamiltonianSpec("free"))
    kappa = 0.2
    psi, e = plane_wave(ctx, kappa)
    p = ctx.params
    e_want = p.hbar**2 * abs(kappa) ** 2 / (p.mass * p.theta)
    depth = boundary_defect_depth(kappa, 40)
    residual = interior_residual(h, psi, e_want, depth)

    psi_n = psi.normalized()
    values = [
        position_probability(ctx, psi_n, radius * np.exp(1j * angle))
        for radius in (0.0, 0.8, 1.5, 2.0)
        for angle in (0.0, 1.1, 2.7, 4.4)
    ]
    flatness = max(values) / min(values) - 1.0

    ok = residual < 1e-6 and e == e_want and flatness < 1e-6
    report(5, "free plane wave", ok,
           f"eigen-residual {residual:.3e} < 1e-6 (defect band depth {depth}), "
           f"energy matches hbar^2|kappa|^2/(m theta), "
           f"density variation {flatness:.3e} < 1e-6 over |z| <= 2")
    assert residual < 1e-6
    assert e == e_want
    assert flatness < 1e-6


# ------------------------------------------------------------------ 6

def test_criterion_6_conservation_and_continuity():
    """Unitary norm transport over t in [0, 10] and the exact continuity identity."""
    rng = np.random.default_rng(21)
    osc_ctx = build_fock(ModelParams(theta=0.1, cutoff=30))
    osc = hamiltonian(osc_ctx, HamiltonianSpec("oscillator"))
    free_ctx = build_fock(ModelParams(theta=0.1, cutoff=24))
    free = hamiltonian(free_ctx, HamiltonianSpec("free"))

    drift = 0.0
    flows = [
        (osc, ground_state(osc_ctx)),
        (osc, interior_state(rng, 30, 6)),
        (free, interior_state(rng, 24, 6)),
    ]
    for h, psi in flows:
        for t in (0.0, 1.0, 2.5, 5.0, 10.0):
            drift = max(drift, abs(evolve(psi, h, t).norm - 1.0))

    cont = max(continuity_residual(psi, h) for h, psi in flows)

    ok = drift < 1e-10 and cont < 1e-8
    report(6, "norm conservation and continuity", ok,
           f"norm drift {drift:.3e} < 1e-10 over t in [0,10], "
           f"continuity residual {cont:.3e} < 1e-8")
    assert drift < 1e-10
    assert cont < 1e-8


# ------------------------------------------------------------------ 7

def test_criterion_7_symmetry_relations(capsys):
    """Conjugation, rotation, and angular-momentum identities; breaking sign."""
    code, rep = run_cli(capsys, ["check", "--suite", "symmetry"])
    residual_rows = [r for r in rep["checks"] if r["name"] != "time_reversal_breaking_positive"]
    breaking_row = next(r for r in rep["checks"] if r["name"] == "time_reversal_breaking_positive")
    worst = max(r["value"] for r in residual_rows)

    # the breaking measure must die with the non-commutativity scale
    ctx = build_fock(ModelParams(theta=1e-6, cutoff=16))
    h = hamiltonian(ctx, HamiltonianSpec("oscillator"))
    rng = np.random.default_rng(0)
    vanish = 0.0
    for _ in range(3):
        psi = interior_state(rng, 16, 6)
        h_psi = h.apply(psi).op
        conj_h = time_reverse(h.apply(time_reverse(psi))).op
        vanish = max(vanish, float(np.linalg.norm(conj_h - h_psi) / np.linalg.norm(h_psi)))

    ok = code == 0 and worst < 1e-10 and breaking_row["value"] > 0.0 and vanish < 1e-12
    report(7, "symmetry relations", ok,
           f"worst relation residual {worst:.3e} < 1e-10 over {len(residual_rows)} rows, "
           f"breaking {breaking_row['value']:.3e} > 0 at theta=0.1, "
           f"{vanish:.3e} < 1e-12 at theta=1e-6")
    assert code == 0
    assert worst < 1e-10
    assert breaking_row["value"] > 0.0
    assert vanish < 1e-12


# ------------------------------------------------------------------ 8

def test_criterion_8_povm_cross_validation(capsys):
    """Positivity, series agreement, and the quadrature resolution of identity."""
    code, rep = run_cli(capsys, ["check", "--suite", "povm"])
    rows = {r["name"]: r for r in rep["checks"]}
    psd = rows["psd_violation"]
    series = rows["series_vs_matrix_agreement"]
    quad = rows["identity_quadrature_low_levels"]
    ok = (
        code == 0
        and psd["value"] < 1e-12
        and series["value"] < 1e-10
        and quad["value"] < 1e-3
    )
    report(8, "POVM cross-validation", ok,
           f"PSD violation {psd['value']:.3e} < 1e-12, "
           f"series vs matrix {series['value']:.3e} < 1e-10, "
           f"identity quadrature {quad['value']:.3e} < 1e-3")
    assert code == 0
    assert psd["value"] < 1e-12
    assert series["value"] < 1e-10
    assert quad["value"] < 1e-3


# ------------------------------------------------------------------ 9

def test_criterion_9_bogoliubov_invariants():
    """Symplectic diagonalization identities over 100 random parameter draws.

    The difference identity lambda_1 - lambda_2 = m^2 w^2 theta is scaled by
    lambda_1: the left side is a subtraction of two like-sized frequencies, so
    its roundoff floor is relative to them, not to the (possibly tiny) gap.
    """
    rng = np.random.default_rng(0)
    worst = {"transform": 0.0, "eig": 0.0, "product": 0.0, "difference": 0.0,
             "kratio": 0.0, "alpha": 0.0}
    for _ in range(100):
        theta = 10.0 ** rng.uniform(-6, 1)
        hb, m, w = (10.0 ** rng.uniform(-2, 2) for _ in range(3))
        p = ModelParams(theta=theta, hbar=hb, mass=m, omega=w, cutoff=4)

        res = bogoliubov_transform(p)
        worst["transform"] = max(
            worst["transform"],
            float(np.max(np.abs(res.S @ res.g @ res.S.conj().T - res.D))),
        )
        lam1, lam2 = lambdas(p)
        target = np.sort(np.array([-lam1, -lam2, lam2, lam1]))
        worst["eig"] = max(
            worst["eig"], float(np.max(np.abs(np.sort(res.eigenvalues) - target))) / lam1
        )
        hmw2 = (hb * m * w) ** 2
        worst["product"] = max(worst["product"], abs(lam1 * lam2 - hmw2) / hmw2)
        worst["difference"] = max(
            worst["difference"], abs((lam1 - lam2) - m**2 * w**2 * theta) / lam1
        )
        k1, k2 = k_norms(p)
        ratio = lam2 / lam1
        worst["kratio"] = max(worst["kratio"], abs(math.sqrt(k2 / k1) - ratio) / ratio)
        a = alpha(p)  # internally cross-checks its two closed forms
        worst["alpha"] = max(
            worst["alpha"],
            abs(math.expm1(-a) - theta * lam1 / hb**2) / (theta * lam1 / hb**2),
            abs(-math.expm1(a) - theta * lam2 / hb**2) / (theta * lam2 / hb**2),
        )

    ok = all(v < 1e-12 for v in worst.values())
    report(9, "Bogoliubov invariants", ok,
           "worst over 100 draws: "
           + ", ".join(f"{k} {v:.3e}" for k, v in worst.items())
           + ", all < 1e-12")
    for name, value in worst.items():
        assert value < 1e-12, f"{name}: {value:.3e}"
