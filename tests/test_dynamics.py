"""Hamiltonians, spectra, evolution, plane waves, and the continuity identity."""

import math
import sys
import threading

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


# ---------------------------------------------------------------- sector route vs dense oracle

def dense_oracle(h, count):
    """(energy, label, vec) of the lowest levels straight from eigh(h.matrix), and max |E|.

    Put in solve_spectrum's canonical form: each run of eigenvalues closer than
    1e-8 of the scale is rotated to diagonalize the exact label -hbar (m - l)
    (ascending), and each vector's largest component is made real positive.
    """
    n = h.cutoff
    evals, evecs = np.linalg.eigh(np.asarray(h.matrix))
    levels = np.arange(n)
    label = (h.ctx.params.hbar * (levels[None, :] - levels[:, None])).reshape(-1)
    scale = max(1.0, float(np.max(np.abs(evals))))
    ctol = 1e-8 * scale
    rows = []
    i = 0
    while i < count:
        j = i + 1
        while j < len(evals) and evals[j] - evals[j - 1] < ctol:
            j += 1
        block = evecs[:, i:j]
        labels, rot = np.linalg.eigh(block.conj().T @ (label[:, None] * block))
        for q, v in enumerate((block @ rot).T):
            pivot = np.argmax(np.abs(v))
            rows.append((evals[i + q], labels[q], v * np.conj(v[pivot]) / abs(v[pivot])))
        i = j
    return rows[:count], scale


def assert_matches_dense_oracle(h, res, count):
    want, scale = dense_oracle(h, count)
    assert len(res.eigenvalues) == count
    assert np.max(np.abs(res.eigenvalues - [e for e, _, _ in want])) < 1e-12 * scale
    assert np.max(np.abs(res.lz_expectations - [lz for _, lz, _ in want])) < 1e-10
    worst = max(np.max(np.abs(vec(s.op) - v)) for s, (_, _, v) in zip(res.eigenstates, want))
    assert worst < 1e-10


def diagonal_table():
    # 0.3 + 0.2 bdag b + 0.05 bdag^2 b^2: diagonal in the Fock basis, so rotation invariant
    return np.diag([0.3, 0.2, 0.05]).astype(complex)


def refuse_matrix(self):
    raise AssertionError("the sector route must not materialize the N^2 x N^2 matrix")


@pytest.mark.parametrize("kind,params,count", [
    ("free", ModelParams(theta=0.1, cutoff=12), 144),
    ("free", ModelParams(theta=0.7, hbar=1.3, mass=0.8, omega=1.7, cutoff=30), 200),
    ("oscillator", ModelParams(theta=0.1, cutoff=12), 144),
    ("oscillator", ModelParams(theta=0.7, hbar=1.3, mass=0.8, omega=1.7, cutoff=40), 200),
    ("potential", ModelParams(theta=0.1, cutoff=12), 144),
    ("potential", ModelParams(theta=0.7, hbar=1.3, mass=0.8, omega=1.7, cutoff=30), 200),
])
def test_sector_route_matches_dense_oracle(kind, params, count, monkeypatch):
    spec = HamiltonianSpec(kind, potential_coeffs=diagonal_table() if kind == "potential" else None)
    h = hamiltonian(build_fock(params), spec)
    with monkeypatch.context() as patch:
        patch.setattr(SuperOperator, "matrix", property(refuse_matrix))
        res = solve_spectrum(h, count)
    assert_matches_dense_oracle(h, res, count)
    # every state lies on the one diagonal l - m its label names, boundary states included
    m, l = np.indices((params.cutoff, params.cutoff))
    for s, lz in zip(res.eigenstates, res.lz_expectations):
        shift = round(lz / params.hbar)
        assert lz == params.hbar * shift
        assert not np.any(s.op[l - m != shift])


def test_off_diagonal_table_keeps_the_dense_route(ctx12, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    h = hamiltonian(ctx12, HamiltonianSpec("potential", potential_coeffs=x1_squared_table(0.1)))
    monkeypatch.setattr(np.linalg, "eigh", counting)
    res = solve_spectrum(h, 40)
    evolve(res.eigenstates[0], h, 0.5)
    assert calls.count((144, 144)) == 1  # one dense eigh, shared with evolve
    monkeypatch.undo()
    assert_matches_dense_oracle(h, res, 40)


def test_sector_route_builds_no_dense_matrix_at_cutoff_160(monkeypatch):
    # criterion 2's solve; a silent fallback to the dense route would allocate ~10 GB
    monkeypatch.setattr(SuperOperator, "matrix", property(refuse_matrix))
    h = hamiltonian(build_fock(ModelParams(theta=0.1, cutoff=160)), OSC)
    res = solve_spectrum(h, 300)
    assert len(res.eigenstates) == 300
    assert np.all(np.diff(res.eigenvalues) >= 0.0)
    psi = res.eigenstates[0]
    assert abs(abs(hs_inner(psi, evolve(psi, h, 1.5))) - 1.0) < 1e-12


# ---------------------------------------------------------------- evolution

@pytest.mark.parametrize("kind,table,params,dense", [
    ("free", None, ModelParams(theta=0.1, cutoff=10), False),
    ("oscillator", None, ModelParams(theta=0.1, cutoff=10), False),
    ("potential", diagonal_table(), ModelParams(theta=0.1, cutoff=10), False),
    ("potential", x1_squared_table(0.1), ModelParams(theta=0.1, cutoff=10), True),
    ("oscillator", None, ModelParams(theta=0.7, hbar=1.3, mass=0.8, omega=1.7, cutoff=10), False),
], ids=["free", "oscillator", "diagonal-table", "x1-squared-table", "oscillator-hbar-1.3"])
def test_evolve_matches_expm_oracle(kind, table, params, dense, monkeypatch):
    h = hamiltonian(build_fock(params), HamiltonianSpec(kind, potential_coeffs=table))
    psi = full_state(np.random.default_rng(3), 10)
    t = 0.7
    with monkeypatch.context() as patch:
        if not dense:  # the sector route never materializes H
            patch.setattr(SuperOperator, "matrix", property(refuse_matrix))
        got = vec(evolve(psi, h, t).op)
    want = scipy.linalg.expm(-1j * np.asarray(h.matrix) * t / params.hbar) @ vec(psi.op)
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
    # the oscillator's 2N - 1 = 23 sector blocks are solved once, for both consumers
    blocks, dense = [], []
    tridiagonal = scipy.linalg.eigh_tridiagonal
    eigh = np.linalg.eigh

    def counting_tridiagonal(d, e, *args, **kwargs):
        blocks.append(len(d))
        return tridiagonal(d, e, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        dense.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting_tridiagonal)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    h = hamiltonian(ctx12, OSC)
    res = solve_spectrum(h, 1)
    solve_spectrum(h, 1)
    out = evolve(res.eigenstates[0], h, 1.5)
    assert len(blocks) == 23
    assert sorted(blocks) == sorted(12 - abs(k) for k in range(-11, 12))
    assert (144, 144) not in dense
    assert abs(abs(hs_inner(res.eigenstates[0], out)) - 1.0) < 1e-12


def test_racing_first_evolves_fill_the_cache_once(monkeypatch):
    blocks = []
    tridiagonal = scipy.linalg.eigh_tridiagonal

    def counting(d, e, *args, **kwargs):
        blocks.append(len(d))
        return tridiagonal(d, e, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    h = hamiltonian(build_fock(ModelParams(theta=0.1, cutoff=12)), OSC)
    psi = full_state(np.random.default_rng(5), 12)
    out = [None] * 4

    def work(i):
        out[i] = evolve(psi, h, 0.5).op

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(out))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(blocks) == 23  # one set of sector blocks, not one per thread
    assert all(np.array_equal(o, out[0]) for o in out)


def test_evolve_requires_hamiltonian(ctx12):
    psi = QuantumState(np.eye(12, dtype=complex))
    s = SuperOperator([(np.eye(12, dtype=complex), np.eye(12, dtype=complex))])
    with pytest.raises(UsageError):
        evolve(psi, s, 1.0)
    with pytest.raises(UsageError, match="cutoff"):
        evolve(QuantumState(np.eye(13, dtype=complex)), hamiltonian(ctx12, OSC), 1.0)
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
