"""Hamiltonians, spectra, evolution, plane waves, and the continuity identity."""

import math

import numpy as np
import pytest
import scipy.linalg

from ncqm import (
    HamiltonianSpec,
    ModelParams,
    QuantumState,
    SuperOperator,
    TruncationError,
    UsageError,
    ValidationError,
    boundary_defect_depth,
    build_fock,
    continuity_residual,
    energy,
    evolve,
    excited_state,
    ground_state,
    hamiltonian,
    hs_inner,
    interior_residual,
    plane_wave,
    solve_spectrum,
    vec,
)
from conftest import full_state, interior_state

FREE = HamiltonianSpec("free")
OSC = HamiltonianSpec("oscillator")


@pytest.fixture(scope="module")
def ctx12():
    return build_fock(ModelParams(theta=0.1, cutoff=12))


def x1_squared_table(theta):
    # x1^2 normal ordered: (theta/2)(b^2 + bdag^2 + 2 bdag b + 1)
    t = np.zeros((3, 3), dtype=complex)
    t[0, 0] = 0.5 * theta
    t[1, 1] = theta
    t[0, 2] = t[2, 0] = 0.5 * theta
    return t


# ---------------------------------------------------------------- spec validation

def test_spec_rejects_unknown_kind():
    with pytest.raises(ValidationError, match="kind"):
        HamiltonianSpec("harmonic")


def test_spec_potential_table_rules():
    with pytest.raises(ValidationError, match="table"):
        HamiltonianSpec("potential")
    with pytest.raises(ValidationError, match="square"):
        HamiltonianSpec("potential", potential_coeffs=np.ones((2, 3)))
    with pytest.raises(ValidationError, match="Hermitian"):
        HamiltonianSpec("potential", potential_coeffs=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="no potential"):
        HamiltonianSpec("free", potential_coeffs=np.eye(2))
    spec = HamiltonianSpec("potential", potential_coeffs=np.array([[0.0, 2.0], [2.0, 1.0]]))
    assert spec.potential_coeffs.dtype == complex


# ---------------------------------------------------------------- assembly oracle

def kron_oracle(ctx, v=None):
    # L psi R <-> kron(L, R.T) on row-major vec, assembled level by level
    n = ctx.cutoff
    eye = np.eye(n)
    p = ctx.params
    c = p.hbar**2 / (2.0 * p.mass * p.theta**2)
    out = np.zeros((n * n, n * n), dtype=complex)
    for x in (np.asarray(ctx.x1), np.asarray(ctx.x2)):
        ad = np.kron(x, eye) - np.kron(eye, x.T)
        out += c * (ad @ ad)
    if v is not None:
        out += np.kron(v, eye)
    return out

def test_free_hamiltonian_matches_kron_oracle(ctx12):
    h = hamiltonian(ctx12, FREE)
    want = kron_oracle(ctx12)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(h.matrix - want)) < 1e-13 * scale
    assert np.max(np.abs(h.v_matrix)) == 0.0


def test_oscillator_hamiltonian_matches_kron_oracle(ctx12):
    h = hamiltonian(ctx12, OSC)
    p = ctx12.params
    v = 0.5 * p.mass * p.omega**2 * (ctx12.x1 @ ctx12.x1 + ctx12.x2 @ ctx12.x2)
    want = kron_oracle(ctx12, v)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(h.matrix - want)) < 1e-13 * scale


def test_potential_table_assembles_normal_ordered_sum(ctx12):
    theta = ctx12.params.theta
    h = hamiltonian(ctx12, HamiltonianSpec("potential", potential_coeffs=x1_squared_table(theta)))
    b = np.asarray(ctx12.b)
    bd = np.asarray(ctx12.bdag)
    want = 0.5 * theta * (b @ b + bd @ bd + 2.0 * bd @ b + np.eye(ctx12.cutoff))
    assert np.max(np.abs(h.v_matrix - want)) < 1e-15

    # equals the squared position operator except the truncation corner, where
    # b bdag = bdag b + 1 fails by N
    n = ctx12.cutoff
    x1sq = np.asarray(ctx12.x1 @ ctx12.x1)
    assert np.max(np.abs((h.v_matrix - x1sq)[: n - 1, : n - 1])) < 1e-15
    assert (x1sq - h.v_matrix)[n - 1, n - 1] == pytest.approx(-0.5 * theta * n, rel=1e-14)


# ---------------------------------------------------------------- spectrum

def test_spectrum_ascending_and_orthonormal(ctx12):
    res = solve_spectrum(hamiltonian(ctx12, OSC), 8)
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)
    gram = np.array(
        [[hs_inner(a, b) for b in res.eigenstates] for a in res.eigenstates]
    )
    assert np.max(np.abs(gram - np.eye(8))) < 1e-12
    assert np.all(res.boundary_weights >= 0.0) and np.all(res.boundary_weights <= 1.0)
    assert len(res.lz_expectations) == 8


def test_spectrum_is_deterministic():
    def fresh():
        ctx = build_fock(ModelParams(theta=0.1, cutoff=12))
        return solve_spectrum(hamiltonian(ctx, OSC), 6)

    a, b = fresh(), fresh()
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.lz_expectations, b.lz_expectations)
    for sa, sb in zip(a.eigenstates, b.eigenstates):
        assert np.array_equal(np.asarray(sa.op), np.asarray(sb.op))


def test_spectrum_count_validation(ctx12):
    h = hamiltonian(ctx12, OSC)
    with pytest.raises(UsageError):
        solve_spectrum(h, 0)
    with pytest.raises(UsageError):
        solve_spectrum(h, 12 * 12 + 1)
    with pytest.raises(UsageError):
        solve_spectrum(SuperOperator([(np.eye(4, dtype=complex), np.eye(4, dtype=complex))]), 1)


# ---------------------------------------------------------------- evolution

def test_evolve_matches_expm_oracle():
    ctx = build_fock(ModelParams(theta=0.1, cutoff=10))
    h = hamiltonian(ctx, OSC)
    rng = np.random.default_rng(3)
    psi = full_state(rng, 10)
    t = 0.7
    u = scipy.linalg.expm(-1j * np.asarray(h.matrix) * t / ctx.params.hbar)
    want = u @ vec(psi.op)
    got = vec(evolve(psi, h, t).op)
    assert np.max(np.abs(got - want)) < 1e-11


def test_evolve_is_unitary_and_additive(ctx12):
    h = hamiltonian(ctx12, OSC)
    rng = np.random.default_rng(4)
    psi = full_state(rng, 12)
    one = evolve(psi, h, 9.25)
    assert abs(one.norm - 1.0) < 1e-13
    two = evolve(evolve(psi, h, 4.0), h, 5.25)
    assert np.max(np.abs(one.op - two.op)) < 1e-12
    frozen = evolve(psi, h, 0.0)
    assert np.max(np.abs(frozen.op - psi.op)) < 1e-15


def test_evolve_ground_state_is_stationary(ctx12):
    # stationary up to the truncation defect of the closed-form ground state
    psi0 = ground_state(build_fock(ModelParams(theta=0.1, cutoff=30)))
    h = hamiltonian(build_fock(ModelParams(theta=0.1, cutoff=30)), OSC)
    out = evolve(psi0, h, 3.0)
    overlap = abs(hs_inner(psi0, out))
    assert overlap > 0.97
    assert abs(out.norm - 1.0) < 1e-13


def test_spectrum_and_evolve_share_one_eigendecomposition(ctx12, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    h = hamiltonian(ctx12, OSC)
    res = solve_spectrum(h, 1)  # the ground level is simple: no cluster eigh
    solve_spectrum(h, 1)
    out = evolve(res.eigenstates[0], h, 1.5)
    assert calls == [(144, 144)]
    assert abs(abs(hs_inner(res.eigenstates[0], out)) - 1.0) < 1e-12


def test_evolve_requires_hamiltonian(ctx12):
    psi = QuantumState(np.eye(12, dtype=complex))
    s = SuperOperator([(np.eye(12, dtype=complex), np.eye(12, dtype=complex))])
    with pytest.raises(UsageError):
        evolve(psi, s, 1.0)
    with pytest.raises(UsageError):
        continuity_residual(psi, s)


# ---------------------------------------------------------------- plane waves

@pytest.fixture(scope="module")
def free40():
    ctx = build_fock(ModelParams(theta=0.1, cutoff=40))
    return ctx, hamiltonian(ctx, FREE)


def test_plane_wave_energy_and_interior_eigenrelation(free40):
    ctx, h = free40
    kappa = 0.2
    psi, en = plane_wave(ctx, kappa)
    p = ctx.params
    assert en == pytest.approx(p.hbar**2 * abs(kappa) ** 2 / (p.mass * p.theta), rel=1e-14)
    depth = boundary_defect_depth(kappa, 40)
    assert depth == 14
    assert interior_residual(h, psi, en, depth) < 1e-12


def test_plane_wave_zero_momentum_is_identity(free40):
    ctx, _ = free40
    psi, en = plane_wave(ctx, 0.0)
    assert en == 0.0
    assert np.array_equal(np.asarray(psi.op), np.eye(40, dtype=complex))


def test_plane_wave_truncation_gate():
    ctx = build_fock(ModelParams(theta=0.1, cutoff=30))
    with pytest.raises(TruncationError, match="kappa"):
        plane_wave(ctx, 2.0)


def test_boundary_defect_depth_contract():
    assert boundary_defect_depth(0.2, 40) == 14
    # wider waves need deeper bands; looser tolerance needs shallower ones
    assert boundary_defect_depth(0.3, 40) > boundary_defect_depth(0.1, 40)
    assert boundary_defect_depth(0.2, 40, tol=1e-3) < 14
    assert boundary_defect_depth(2.0, 6) == 6  # never exceeds the cutoff


def test_interior_residual_depth_validation(ctx12):
    h = hamiltonian(ctx12, FREE)
    psi = QuantumState(np.eye(12, dtype=complex))
    with pytest.raises(UsageError):
        interior_residual(h, psi, 0.0, -1)
    with pytest.raises(UsageError):
        interior_residual(h, psi, 0.0, 13)


# ---------------------------------------------------------------- continuity

@pytest.mark.parametrize(
    "spec",
    [FREE, OSC, HamiltonianSpec("potential", potential_coeffs=x1_squared_table(0.1))],
    ids=["free", "oscillator", "potential"],
)
def test_continuity_identity_every_state(spec):
    # exact for full-support states, boundary included: no interior masking here
    ctx = build_fock(ModelParams(theta=0.1, cutoff=16))
    h = hamiltonian(ctx, spec)
    rng = np.random.default_rng(8)
    for psi in (full_state(rng, 16), interior_state(rng, 16, 4)):
        assert continuity_residual(psi, h) < 1e-10


def test_continuity_excited_state(ctx12):
    big = build_fock(ModelParams(theta=0.1, cutoff=30))
    h = hamiltonian(big, OSC)
    psi = excited_state(big, 1, 0)
    assert continuity_residual(psi, h) < 1e-10
