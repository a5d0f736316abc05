"""Closed-form oscillator layer: frequencies, ground/excited states, Bogoliubov data."""

import itertools
import math
import re
import sys
import time
from dataclasses import replace
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncqm import (
    DegenerateOscillatorError,
    HamiltonianSpec,
    ModelParams,
    QuantumState,
    SuperOperator,
    TruncationError,
    UsageError,
    alpha,
    bogoliubov_transform,
    build_fock,
    energy,
    excited_state,
    ground_probability,
    ground_state,
    ground_tail_weight,
    hamiltonian,
    hs_inner,
    interior_residual,
    k_norms,
    ladder_ops,
    lambdas,
    momentum_ops,
    position_ops,
    spectrum_levels,
)
from ncqm import oscillator
from conftest import fock, interior_state

P01 = ModelParams(theta=0.1, cutoff=30)

# log-uniform parameter draws keeping every derived scale finite in float64
param_draws = st.builds(
    lambda et, eh, em, ew: ModelParams(
        theta=10.0**et, hbar=10.0**eh, mass=10.0**em, omega=10.0**ew, cutoff=4
    ),
    st.floats(-6.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)


# ---------------------------------------------------------------- closed forms

def test_lambda_values_and_ordering():
    lam1, lam2 = lambdas(P01)
    assert lam1 == pytest.approx(1.0512492197250394, rel=1e-13)
    assert lam2 == pytest.approx(0.9512492197250392, rel=1e-13)
    assert lam1 >= lam2 > 0.0


@given(param_draws)
def test_lambda_identities(p):
    lam1, lam2 = lambdas(p)
    mw = p.mass * p.omega
    assert lam1 * lam2 == pytest.approx((p.hbar * mw) ** 2, rel=1e-12)
    assert lam1 - lam2 == pytest.approx(mw * mw * p.theta, rel=1e-10, abs=1e-14 * lam1)


def test_degenerate_frequency_raises():
    p = ModelParams(theta=0.1, omega=0.0)
    for fn in (lambdas, alpha, bogoliubov_transform):
        with pytest.raises(DegenerateOscillatorError):
            fn(p)
    with pytest.raises(DegenerateOscillatorError):
        energy(p, 0, 0)
    # omega = 0 is the free particle: hamiltonian refuses it under the oscillator's name too
    with pytest.raises(DegenerateOscillatorError, match="omega > 0"):
        hamiltonian(build_fock(replace(p, cutoff=8)), HamiltonianSpec("oscillator"))


def test_alpha_value_and_cross_identity():
    assert alpha(P01) == pytest.approx(-0.09995838013869762, rel=1e-13)
    assert alpha(ModelParams(theta=0.0)) == 0.0


@given(param_draws)
def test_alpha_solves_both_closed_forms(p):
    lam1, lam2 = lambdas(p)
    a = alpha(p)
    # e^{-a} = 1 + th lam1 / hbar^2 and e^{a} = 1 - th lam2 / hbar^2 simultaneously
    assert math.expm1(-a) == pytest.approx(p.theta * lam1 / p.hbar**2, rel=1e-10)
    assert -math.expm1(a) == pytest.approx(p.theta * lam2 / p.hbar**2, rel=1e-10)


def test_alpha_stable_at_extreme_frequency():
    # reference from 40-digit decimal arithmetic
    getcontext().prec = 40
    th, h, mw = Decimal("0.1"), Decimal(1), Decimal(10) ** 6
    rad = (4 * h * h + (mw * th) ** 2).sqrt()
    ref = 2 * ((2 * h).ln() - (rad + mw * th).ln())
    got = alpha(ModelParams(theta=0.1, omega=1e6, cutoff=4))
    assert float(abs(Decimal(got) - ref) / abs(ref)) < 1e-14


def test_alpha_small_theta_expansion():
    p = ModelParams(theta=1e-8, cutoff=4)
    assert alpha(p) == pytest.approx(-p.theta * p.mass * p.omega / p.hbar, rel=1e-7)


@given(param_draws)
def test_k_ratio_identity(p):
    lam1, lam2 = lambdas(p)
    k1, k2 = k_norms(p)
    assert k1 > 0.0 and k2 > 0.0
    assert math.sqrt(k2 / k1) == pytest.approx(lam2 / lam1, rel=1e-11)


def test_energy_values_and_splitting():
    assert energy(P01, 0, 0) == pytest.approx(1.0012492197250393, rel=1e-13)
    lam1, lam2 = lambdas(P01)
    for n1, n2 in ((1, 0), (3, 1), (0, 4)):
        split = energy(P01, n1, n2) - energy(P01, n2, n1)
        assert split == pytest.approx((lam1 - lam2) * (n1 - n2) / P01.mass, rel=1e-12)
    # the clockwise/counterclockwise gap at unit constants is m w^2 theta
    assert energy(P01, 1, 0) - energy(P01, 0, 1) == pytest.approx(0.1, rel=1e-12)


def test_energy_commutative_point_is_isotropic():
    p = ModelParams(theta=0.0)
    for n1, n2 in ((0, 0), (1, 0), (0, 1), (2, 3)):
        assert energy(p, n1, n2) == pytest.approx(p.hbar * p.omega * (n1 + n2 + 1), rel=1e-14)


def test_energy_validates_quantum_numbers():
    for bad in ((-1, 0), (0, -2), (0.5, 0), (0, 1.5)):
        with pytest.raises(UsageError):
            energy(P01, *bad)


# ---------------------------------------------------------------- ground density

def test_ground_probability_center_value_and_normalization():
    assert ground_probability(P01, 0.0) == pytest.approx(0.2883904967082229, rel=1e-13)
    # radial quadrature of P over the plane, r = sqrt(2 theta) |z|
    r = np.linspace(0.0, 8.0, 20001)
    p_of_r = np.array([ground_probability(P01, ri / math.sqrt(2.0 * P01.theta)) for ri in r])
    total = np.trapezoid(p_of_r * 2.0 * math.pi * r, r)
    assert total == pytest.approx(1.0, abs=1e-6)  # trapezoid discretization error


def test_ground_probability_commutative_shape():
    p = ModelParams(theta=1e-8, cutoff=4)
    mw_h = p.mass * p.omega / p.hbar
    for r in (0.0, 0.4, 1.0, 1.7):
        z = r / math.sqrt(2.0 * p.theta)
        want = (mw_h / math.pi) * math.exp(-mw_h * r * r)
        assert ground_probability(p, z) == pytest.approx(want, rel=1e-5)


def test_ground_probability_rejects_commutative_point():
    with pytest.raises(UsageError):
        ground_probability(ModelParams(theta=0.0), 0.0)


# ---------------------------------------------------------------- states

def test_ground_state_geometric_diagonal(ctx01):
    psi0 = ground_state(ctx01)
    mat = np.array(psi0.op)
    assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0.0
    d = np.real(np.diag(mat))
    ratio = math.exp(alpha(ctx01.params))
    assert np.allclose(d[1:] / d[:-1], ratio, rtol=1e-13)
    assert abs(psi0.norm_sq - 1) <= 1e-13


def test_ground_state_diagonal_shift_identity(ctx01):
    # [b, psi0] = (1 - e^{-alpha}) b psi0 holds exactly, truncation included
    psi0 = ground_state(ctx01).op
    b = fock(ctx01).b
    lhs = b @ psi0 - psi0 @ b
    rhs = (1.0 - math.exp(-alpha(ctx01.params))) * (b @ psi0)
    assert np.max(np.abs(lhs - rhs)) < 1e-15  # identity is exact, entries round once


def test_ground_state_truncation_gate():
    with pytest.raises(TruncationError, match="N >="):
        ground_state(build_fock(ModelParams(theta=0.1, cutoff=20)))
    ground_state(build_fock(ModelParams(theta=0.1, cutoff=28)))  # just inside


@pytest.mark.parametrize("theta", [0.5, 0.1, 0.03, 0.01, 1e-3, 1e-5, 1e-8])
def test_ground_state_advises_the_least_cutoff_that_passes(theta):
    with pytest.raises(TruncationError) as refused:
        ground_state(build_fock(ModelParams(theta=theta, cutoff=2)))
    needed = int(re.search(r"need N >= (\d+)$", str(refused.value)).group(1))

    def tail(cutoff):
        return ground_tail_weight(ModelParams(theta=theta, cutoff=cutoff))

    # ground_state refuses exactly when the tail weight exceeds _TAIL_MAX
    assert tail(needed) <= oscillator._TAIL_MAX < tail(needed - 1)


def test_ground_tail_weight_matches_top_entry(ctx01):
    psi0 = ground_state(ctx01)
    top = abs(psi0.op[-1, -1]) ** 2
    assert ground_tail_weight(ctx01.params) == pytest.approx(top, rel=1e-12)
    # alpha = 0 limit spreads the diagonal uniformly
    assert ground_tail_weight(ModelParams(theta=0.0, cutoff=25)) == pytest.approx(1.0 / 25)
    # and tiny theta tends to it, where 1 - e^{2 alpha} once rounded to 0 / 0
    assert ground_tail_weight(ModelParams(theta=1e-20, cutoff=25)) == pytest.approx(1.0 / 25)


def test_ladders_annihilate_ground(ctx01):
    a1, _, a2, _ = ladder_ops(ctx01)
    psi0 = ground_state(ctx01)
    assert a1.apply(psi0).norm < 1e-12
    assert a2.apply(psi0).norm < 1e-12


def test_ladder_fock_algebra_on_interior_states():
    ctx = build_fock(ModelParams(theta=0.1, cutoff=24))
    a1, a1d, a2, a2d = ladder_ops(ctx)
    rng = np.random.default_rng(5)
    states = [interior_state(rng, 24, 3) for _ in range(2)]
    cases = [
        (a1, a1d, 1.0),
        (a2, a2d, 1.0),
        (a1, a2d, 0.0),
        (a1, a2, 0.0),
        (a1d, a2d, 0.0),
    ]
    for s, t, scalar in cases:
        for psi in states:
            r = s.apply(t.apply(psi)).op - t.apply(s.apply(psi)).op - scalar * psi.op
            assert np.linalg.norm(r) < 1e-10


def test_excited_states_live_on_one_diagonal(ctx01):
    for n1, n2 in ((1, 0), (0, 2), (2, 1)):
        psi = excited_state(ctx01, n1, n2)
        mat = np.array(psi.op)
        d = n1 - n2
        keep = np.diag(np.diag(mat, -d) if d >= 0 else np.diag(mat, -d), -d)
        assert np.max(np.abs(mat - keep)) == 0.0
        assert psi.is_normalized()


def test_excited_states_carry_angular_momentum(ctx01):
    from ncqm import angular_momentum

    lz = angular_momentum(ctx01)
    hbar = ctx01.params.hbar
    for n1, n2 in ((1, 0), (0, 1), (1, 2)):
        psi = excited_state(ctx01, n1, n2)
        # Lz defects live on the top row/column only; mask one level
        assert interior_residual(lz, psi, hbar * (n2 - n1), 1) < 1e-10


def test_excited_states_are_interior_eigenstates(ctx01):
    h = hamiltonian(ctx01, HamiltonianSpec("oscillator"))
    for n1, n2 in ((1, 0), (0, 1), (1, 1)):
        res = interior_residual(h, excited_state(ctx01, n1, n2), energy(ctx01.params, n1, n2), 3)
        assert res < 1e-6


EXCITED_PARAMS = [
    ModelParams(theta=0.1, cutoff=30),
    ModelParams(theta=0.5, hbar=1.3, mass=0.8, omega=1.7, cutoff=30),
    ModelParams(theta=2.0, hbar=0.7, mass=1.5, omega=0.6, cutoff=40),
    ModelParams(theta=0.1, cutoff=80),
]
EXCITED_LEVELS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 3), (0, 4))


def _six_term_ladders(ctx):
    """The ladders composed from the position and momentum superoperators, as the paper writes them.

    A1 = (-(l1/hbar) X1 - i(l1/hbar) X2 - i P1 + P2) / sqrt(K1)
    A2 = ( (l2/hbar) X1 - i(l2/hbar) X2 + i P1 + P2) / sqrt(K2)
    """
    lam1, lam2 = lambdas(ctx.params)
    k1, k2 = k_norms(ctx.params)
    x1, x2 = position_ops(ctx)
    p1, p2 = momentum_ops(ctx)
    c1, c2 = lam1 / ctx.params.hbar, lam2 / ctx.params.hbar
    s1, s2 = 1.0 / math.sqrt(k1), 1.0 / math.sqrt(k2)
    return (s1 * ((-c1) * x1 + (-1j * c1) * x2 + (-1j) * p1 + p2),
            s1 * ((-c1) * x1 + (1j * c1) * x2 + 1j * p1 + p2),
            s2 * (c2 * x1 + (-1j * c2) * x2 + 1j * p1 + p2),
            s2 * (c2 * x1 + (1j * c2) * x2 + (-1j) * p1 + p2))


@pytest.mark.parametrize("params", EXCITED_PARAMS, ids=lambda p: f"theta{p.theta}-N{p.cutoff}")
def test_ladders_are_two_terms_equal_to_the_six_term_composition(params):
    ctx = build_fock(params)
    rng = np.random.default_rng(11)
    states = [QuantumState(rng.standard_normal((params.cutoff,) * 2)
                           + 1j * rng.standard_normal((params.cutoff,) * 2)) for _ in range(2)]
    for two, six in zip(ladder_ops(ctx), _six_term_ladders(ctx)):
        assert len(two.terms) == 2 and len(six.terms) == 12  # six dense terms; x and p have two bands each
        for psi in states:
            want = six.apply(psi).op
            assert np.max(np.abs(two.apply(psi).op - want)) < 1e-14 * np.max(np.abs(want))


def _excited_at(ctx, n1, n2, n_big):
    """The dense construction: six-term ladders applied to psi_0 at internal cutoff n_big."""
    n = ctx.params.cutoff
    _, a1d, _, a2d = _six_term_ladders(build_fock(replace(ctx.params, cutoff=n_big)))
    state = QuantumState(np.diag(np.exp(alpha(ctx.params) * np.arange(n_big))))
    for _ in range(n1):
        state = a1d.apply(state)
    for _ in range(n2):
        state = a2d.apply(state)
    return np.array(state.op[:n, :n]) / np.linalg.norm(state.op[:n, :n])


@pytest.mark.parametrize("params", EXCITED_PARAMS, ids=lambda p: f"theta{p.theta}-N{p.cutoff}")
def test_excited_state_needs_no_pad_beyond_its_ladders(params):
    # N + n1 + n2 levels already give the exact N x N block: the result must not
    # move when the same construction runs at the old alpha-based pad or above
    ctx = build_fock(params)
    old_pad = math.ceil(28.0 / abs(alpha(params)))
    for n1, n2 in EXCITED_LEVELS:
        got = np.array(excited_state(ctx, n1, n2).op)
        for n_big in (params.cutoff + old_pad + 2 * (n1 + n2), params.cutoff + n1 + n2 + 5):
            assert np.max(np.abs(got - _excited_at(ctx, n1, n2, n_big))) < 1e-11


def test_excited_state_builds_no_context_and_applies_no_superoperator(ctx01, monkeypatch):
    calls = []
    apply = SuperOperator.apply
    monkeypatch.setattr(SuperOperator, "apply", lambda op, psi: calls.append("apply") or apply(op, psi))
    for name, module in list(sys.modules.items()):
        if name.startswith("ncqm") and hasattr(module, "build_fock"):
            monkeypatch.setattr(module, "build_fock", lambda params: calls.append("build_fock"))
    for n1, n2 in EXCITED_LEVELS:
        excited_state(ctx01, n1, n2)
    assert calls == []


def _mp_excited(params, n1, n2):
    """(A1dag)^n1 (A2dag)^n2 psi_0 on the N x N block, from the two-term forms

    A1dag psi = -sqrt(2 th/K1) ((l1/hbar + hbar/th) b^dag psi - (hbar/th) psi b^dag)
    A2dag psi =  sqrt(2 th/K2) ((l2/hbar - hbar/th) b psi + (hbar/th) psi b)

    applied as index shifts on a matrix with room for every raised level.  The ladders cancel
    as the library's recurrence once did, so the working precision grows with n1 + n2:
    at (20, 20), theta = 0.1, 40 digits leave the result 2.2e-6 from a 120-digit one.
    """
    with mpmath.workdps(40 + 4 * (n1 + n2)):
        th, hb, m, w = (mpmath.mpf(v) for v in (params.theta, params.hbar, params.mass, params.omega))
        mw = m * w
        big = mpmath.sqrt(4 * hb**2 + (mw * th) ** 2) + mw * th
        lam1, lam2 = mw * big / 2, 2 * hb**2 * mw / big
        k1 = lam1 * (2 * lam1 * th / hb**2 + 4)
        k2 = lam2 * (4 - 2 * lam2 * th / hb**2)
        q = 1 - th * lam2 / hb**2  # e^alpha
        n = params.cutoff
        size = n + 2 * (n1 + n2)
        psi = [[q**i if i == j else mpmath.mpc(0) for j in range(size)] for i in range(size)]

        def at(i, j):
            return psi[i][j] if 0 <= i < size and 0 <= j < size else 0

        s1 = -mpmath.sqrt(2 * th / k1)
        s2 = mpmath.sqrt(2 * th / k2)
        for _ in range(n2):
            psi = [[s2 * ((lam2 / hb - hb / th) * mpmath.sqrt(i + 1) * at(i + 1, j)
                          + (hb / th) * mpmath.sqrt(j) * at(i, j - 1))
                    for j in range(size)] for i in range(size)]
        for _ in range(n1):
            psi = [[s1 * ((lam1 / hb + hb / th) * mpmath.sqrt(i) * at(i - 1, j)
                          - (hb / th) * mpmath.sqrt(j + 1) * at(i, j + 1))
                    for j in range(size)] for i in range(size)]
        norm = mpmath.sqrt(sum(abs(psi[i][j]) ** 2 for i in range(n) for j in range(n)))
        return np.array([[complex(psi[i][j] / norm) for j in range(n)] for i in range(n)])


def test_excited_state_matches_mpmath_ladders(ctx01):
    # the ladder recurrence once missed (6, 6) by 1.3e-4 and (8, 8) at theta = 0.03 by 0.45
    cases = [(ctx01, q) for q in ((1, 0), (0, 1), (2, 1), (1, 3), (3, 3), (4, 4), (5, 5), (6, 6),
                                  (3, 9), (4, 8), (0, 8), (5, 2))]
    for ctx, (n1, n2) in cases + [(build_fock(ModelParams(theta=0.03, cutoff=80)), (8, 8))]:
        got = np.array(excited_state(ctx, n1, n2).op)
        assert np.max(np.abs(got - _mp_excited(ctx.params, n1, n2))) < 1e-11


def test_excited_states_are_the_sector_eigenvectors_at_their_closed_form_energies():
    params = ModelParams(theta=0.37, hbar=0.7, mass=1.3, omega=0.9, cutoff=60)
    ctx = build_fock(params)
    states = ((0, 0), (1, 0), (0, 1), (2, 1), (3, 3), (1, 4), (6, 6))
    top = max(energy(params, n1, n2) for n1, n2 in states)
    levels = list(itertools.takewhile(lambda level: level[0] < top + 1.0,
                                      spectrum_levels(hamiltonian(ctx, HamiltonianSpec("oscillator")))))
    for n1, n2 in states:
        e = energy(params, n1, n2)
        _, psi, _, _ = min((level for level in levels if level[2] == params.hbar * (n2 - n1)),
                           key=lambda level: abs(level[0] - e))
        assert 1.0 - abs(hs_inner(psi, excited_state(ctx, n1, n2))) <= 1e-13


def _mp_meixner(params, n1, n2):
    """Normalized diagonal of excited_state from the closed form sqrt((beta)_l c^l / l!) 2F1(-j, -l; beta; 1 - 1/c)."""
    with mpmath.workdps(30):
        c = mpmath.exp(2 * mpmath.mpf(alpha(params)))
        k, j = n1 - n2, min(n1, n2)
        u = [(-1) ** max(k, 0) * mpmath.sqrt(mpmath.rf(abs(k) + 1, l) * c**l / mpmath.factorial(l))
             * mpmath.hyp2f1(-j, -l, abs(k) + 1, 1 - 1 / c) for l in range(params.cutoff - abs(k))]
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in u))
        return np.array([float(x / norm) for x in u])


def test_excited_state_keeps_its_relative_digits_where_it_decays():
    # the block reaches past the place where u starts to decay: joining the two sweeps where a_l > 2 b_l
    # instead of a_l > b_l + b_{l-1} runs the upward sweep about 115 places into the decay, 1e-7 off there
    params = ModelParams(theta=0.1, cutoff=400)
    ctx = build_fock(params)
    for n1, n2 in ((1, 0), (0, 3)):
        got = np.diag(excited_state(ctx, n1, n2).op, n2 - n1).real
        assert np.max(np.abs(got / _mp_meixner(params, n1, n2) - 1.0)) < 1e-11


def test_excited_states_at_tiny_theta_sweep_only_the_block():
    # the ground-state gate admits N = 1001 as theta -> 0, where 40/|alpha| places past the block would be
    # 4e7 at theta = 1e-6 and 4e21 at 1e-20; u does not decay inside the block there, so none are swept
    for theta in (1e-20, 1e-6):
        params = ModelParams(theta=theta, cutoff=1001)
        ctx = build_fock(params)
        for n1, n2 in ((1, 0), (3, 3), (0, 5)):
            start = time.perf_counter()
            got = np.diag(excited_state(ctx, n1, n2).op, n2 - n1).real
            assert time.perf_counter() - start < 5.0
            assert np.max(np.abs(got - _mp_meixner(params, n1, n2))) < 1e-11
    # at theta = 1e-310, 1 - c is subnormal: the block of (1, 0) holds no normal share of its weight
    with pytest.raises(TruncationError, match="raise the cutoff"):
        excited_state(build_fock(ModelParams(theta=1e-310, cutoff=1001)), 1, 0)


def test_excited_state_truncation_gate_names_the_cutoff(ctx01):
    with pytest.raises(TruncationError, match="N >="):
        excited_state(build_fock(ModelParams(theta=0.1, cutoff=12)), 1, 0)
    # no internal cutoff caps the quantum numbers: the block of (1000, 1000) holds 5.0e-21 of its weight
    psi = excited_state(ctx01, 1000, 1000)
    assert psi.is_normalized() and np.max(np.abs(np.diag(psi.op) - _mp_meixner(ctx01.params, 1000, 1000))) < 1e-11


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_excited_states_out_of_reach_are_refused_and_in_reach_stay_finite(ctx01):
    # the diagonal m - l = n1 - n2 misses the N x N block: once refused as the zero state
    for n1, n2 in ((30, 0), (0, 30), (100, 0), (200, 0), (40, 1000)):
        with pytest.raises(TruncationError, match="must exceed \\|n1 - n2\\|"):
            excited_state(ctx01, n1, n2)
    # these once overflowed to a non-finite state; their blocks hold 7.1e-2, 5.1e-27 and 3.5e-20 of their weight
    for n1, n2 in ((100, 100), (980, 970), (985, 985)):
        psi = excited_state(ctx01, n1, n2)
        assert psi.is_normalized()
        assert np.max(np.abs(np.diag(psi.op, n2 - n1) - _mp_meixner(ctx01.params, n1, n2))) < 1e-11
    # at theta = 1 the block of (985, 985) holds 1e-692 of its weight, below every normal double
    with pytest.raises(TruncationError, match="raise the cutoff"):
        excited_state(build_fock(ModelParams(theta=1.0, cutoff=30)), 985, 985)


def test_excited_state_validation(ctx01):
    with pytest.raises(UsageError):
        excited_state(ctx01, -1, 0)
    with pytest.raises(UsageError):
        excited_state(ctx01, 0, 0.5)


# ---------------------------------------------------------------- Bogoliubov

def test_bogoliubov_diagonalizes_gram_matrix():
    res = bogoliubov_transform(P01)
    scale = np.max(np.abs(res.g))
    assert np.max(np.abs(res.S @ res.g @ res.S.conj().T - res.D)) < 1e-12 * scale
    lam1, lam2 = lambdas(P01)
    target = np.sort([-lam1, -lam2, lam2, lam1])
    assert np.max(np.abs(res.eigenvalues - target)) < 1e-12 * lam1
    assert res.residual < 1e-12 * scale


def test_bogoliubov_commutative_point_is_deterministic():
    # eigensolvers may mix the degenerate pair at theta = 0; closed-form rows must not
    res1 = bogoliubov_transform(ModelParams(theta=0.0))
    res2 = bogoliubov_transform(ModelParams(theta=0.0))
    assert np.array_equal(res1.S, res2.S)
    assert res1.lambda1 == res1.lambda2 == pytest.approx(1.0, rel=1e-14)


@given(param_draws)
def test_bogoliubov_random_parameters(p):
    res = bogoliubov_transform(p)
    scale = max(1.0, float(np.max(np.abs(res.g))))
    assert np.max(np.abs(res.S @ res.g @ res.S.conj().T - res.D)) < 1e-11 * scale
