"""Positions, momenta, angular momentum, rotations, and anti-linear conjugation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncqm import (
    HamiltonianSpec,
    ModelParams,
    QuantumState,
    SuperOperator,
    angular_momentum,
    build_fock,
    hamiltonian,
    momentum_ops,
    position_ops,
    rotate,
    time_reverse,
    time_reverse_conjugate,
)
from conftest import fock, full_state, interior_state, random_superop


@pytest.fixture(scope="module")
def ctx():
    return build_fock(ModelParams(theta=0.1, cutoff=18))


@pytest.fixture(scope="module")
def obs(ctx):
    (x1, x2), (p1, p2) = position_ops(ctx), momentum_ops(ctx)
    return SimpleNamespace(X1=x1, X2=x2, P1=p1, P2=p2, Lz=angular_momentum(ctx))


# ---------------------------------------------------------------- algebra

def test_heisenberg_commutators_on_interior_states(ctx, obs):
    theta, hbar = ctx.params.theta, ctx.params.hbar
    rng = np.random.default_rng(3)
    states = [interior_state(rng, ctx.cutoff, 3) for _ in range(3)]
    pairs = [
        (obs.X1, obs.X2, 1j * theta),
        (obs.X1, obs.P1, 1j * hbar),
        (obs.X2, obs.P2, 1j * hbar),
        (obs.X1, obs.P2, 0.0),
        (obs.X2, obs.P1, 0.0),
        (obs.P1, obs.P2, 0.0),
    ]
    for s1, s2, scalar in pairs:
        for psi in states:
            r = s1.apply(s2.apply(psi)).op - s2.apply(s1.apply(psi)).op - scalar * psi.op
            assert np.linalg.norm(r) < 1e-12


def test_momenta_match_ladder_commutator_form(ctx, obs):
    # P1 + iP2 = -i hbar sqrt(2/theta) [b, .] and P1 - iP2 = i hbar sqrt(2/theta) [b^dag, .]
    p1m, p2m = obs.P1.matrix, obs.P2.matrix
    eye = np.eye(ctx.cutoff)
    pref = -1j * ctx.params.hbar * math.sqrt(2.0 / ctx.params.theta)
    dense = fock(ctx)
    for sign, ladder, c in ((1.0, dense.b, pref), (-1.0, dense.bdag, -pref)):
        commutator = c * (np.kron(ladder, eye) - np.kron(eye, ladder.T))  # L psi R <-> kron(L, R^T)
        scale = np.max(np.abs(commutator))
        assert np.max(np.abs(p1m + sign * 1j * p2m - commutator)) < 1e-13 * scale


def _hermitian_defect(mat):
    """max |M - M^dag| relative to max(1, max |M|); at most 1e-12 for a Hermitian map."""
    return np.max(np.abs(mat - mat.conj().T)) / max(1.0, np.max(np.abs(mat)))


@pytest.mark.parametrize("n", [8, 12])
def test_observables_and_hamiltonians_are_hermitian_on_the_state_space(n):
    theta = 0.1
    ctx = build_fock(ModelParams(theta=theta, cutoff=n))
    x1_sq = np.zeros((3, 3), dtype=complex)  # (theta/2)(b^2 + bdag^2 + 2 bdag b + 1)
    x1_sq[0, 0] = x1_sq[0, 2] = x1_sq[2, 0] = 0.5 * theta
    x1_sq[1, 1] = theta
    complex_table = np.zeros((3, 3), dtype=complex)  # i (bdag^2 - b^2)
    complex_table[2, 0], complex_table[0, 2] = 1j, -1j
    specs = (HamiltonianSpec("free"), HamiltonianSpec("oscillator"),
             HamiltonianSpec("potential", potential_coeffs=x1_sq),
             HamiltonianSpec("potential", potential_coeffs=complex_table))
    base = [*position_ops(ctx), *momentum_ops(ctx), angular_momentum(ctx)]
    ops = (base + [-2.5 * s for s in base] + [time_reverse_conjugate(s) for s in base]
           + [hamiltonian(ctx, spec) for spec in specs])
    assert max(_hermitian_defect(s.matrix) for s in ops) <= 1e-12
    left_b = SuperOperator(n, [((1, np.sqrt(np.arange(1, n))), None)])
    assert _hermitian_defect(left_b.matrix) > 1e-12


def test_angular_momentum_composite_identity(ctx, obs):
    # Lz = X1 P2 - X2 P1 + (theta/2 hbar)(P1^2 + P2^2) holds as truncated
    # matrices identically, top-level defects included
    theta, hbar = ctx.params.theta, ctx.params.hbar
    composite = (
        obs.X1 @ obs.P2 - obs.X2 @ obs.P1
        + (theta / (2.0 * hbar)) * (obs.P1 @ obs.P1 + obs.P2 @ obs.P2)
    )
    lz = angular_momentum(ctx).matrix
    assert np.max(np.abs(lz - composite.matrix)) < 1e-12 * np.max(np.abs(lz))


def test_angular_momentum_on_interior_matrix_units(ctx):
    lz = angular_momentum(ctx)
    n = ctx.cutoff
    hbar = ctx.params.hbar
    for m, k in ((0, 0), (2, 5), (7, 1), (n - 2, n - 2), (0, n - 2)):
        unit = np.zeros((n, n), dtype=complex)
        unit[m, k] = 1.0
        out = lz.apply(QuantumState(unit)).op
        assert np.max(np.abs(out - hbar * (k - m) * unit)) < 1e-13 * n


# ---------------------------------------------------------------- rotations

@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_rotation_additive_and_isometric(phi1, phi2):
    psi = full_state(np.random.default_rng(11), 9)
    once = rotate(psi, phi1 + phi2)
    twice = rotate(rotate(psi, phi1), phi2)
    assert np.max(np.abs(once.op - twice.op)) < 1e-12
    assert rotate(psi, phi1).norm_sq == pytest.approx(psi.norm_sq, rel=1e-13)


def test_rotation_mixes_position_operators(ctx):
    phi = 0.7
    dense = fock(ctx)
    x1, x2 = dense.x1, dense.x2
    rotated = rotate(QuantumState(x1), phi).op
    target = math.cos(phi) * x1 + math.sin(phi) * x2
    assert np.linalg.norm(rotated - target) < 1e-12 * np.linalg.norm(x1)


def test_full_turn_is_identity(rng):
    psi = full_state(rng, 12)
    back = rotate(psi, 2.0 * math.pi)
    assert np.max(np.abs(back.op - psi.op)) < 1e-13


# ---------------------------------------------------------------- conjugation

def test_time_reverse_antilinear_involution(rng):
    psi, phi = full_state(rng, 8), full_state(rng, 8)
    c = 0.8 - 0.6j
    lhs = time_reverse(QuantumState(c * psi.op + phi.op)).op
    rhs = np.conj(c) * time_reverse(psi).op + time_reverse(phi).op
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(time_reverse(time_reverse(psi)).op, psi.op)


def test_conjugated_position_is_right_multiplication(ctx, obs, rng):
    # Theta X_i Theta psi = psi x_i for every state, boundary support included
    dense = fock(ctx)
    for _ in range(3):
        psi = full_state(rng, ctx.cutoff)
        got1 = time_reverse(obs.X1.apply(time_reverse(psi))).op
        got2 = time_reverse(obs.X2.apply(time_reverse(psi))).op
        assert np.max(np.abs(got1 - psi.op @ dense.x1)) < 1e-14
        assert np.max(np.abs(got2 - psi.op @ dense.x2)) < 1e-14


def test_conjugation_flips_momenta_exactly(ctx, obs, rng):
    for s in (obs.P1, obs.P2):
        psi = full_state(rng, ctx.cutoff)
        got = time_reverse(s.apply(time_reverse(psi))).op
        want = -s.apply(psi).op
        assert np.max(np.abs(got - want)) < 1e-12


def test_time_reverse_conjugate_defining_property(rng):
    n = 7
    s = random_superop(rng, n)
    conj = time_reverse_conjugate(s)
    for _ in range(3):
        psi = full_state(rng, n)
        lhs = time_reverse(s.apply(time_reverse(psi))).op
        assert np.max(np.abs(lhs - conj.apply(psi).op)) < 1e-12


def test_time_reverse_conjugate_flips_angular_momentum(ctx):
    lz = angular_momentum(ctx)
    flipped = time_reverse_conjugate(lz)
    assert np.max(np.abs(flipped.matrix + lz.matrix)) < 1e-13 * np.max(np.abs(lz.matrix))
