"""Position measurement layer: symbols, density series, POVM elements, grids."""

import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncqm import (
    ConvergenceError,
    GridSpec,
    MeasurementImpossibleError,
    ModelParams,
    NumericalError,
    QuantumState,
    TruncationError,
    TruncationWarning,
    UsageError,
    alpha,
    build_fock,
    coherent_state_op,
    coherent_tail,
    coherent_vector,
    density_series,
    deriv_z,
    deriv_zbar,
    excited_state,
    ground_probability,
    ground_state,
    lambdas,
    plane_wave,
    position_probability,
    post_measurement,
    povm_identity_residual,
    povm_matrix,
    probability_grid,
    rotate,
    symbol,
    unvec,
    vec,
)
from ncqm import measurement
from ncqm.measurement import _BLOCK, _projector_densities
from conftest import full_state, interior_state

THETA = 0.1


@pytest.fixture(scope="module")
def ctx16():
    return build_fock(ModelParams(theta=THETA, cutoff=16))


def unit_matrix_state(n, a, b):
    op = np.zeros((n, n), dtype=complex)
    op[a, b] = 1.0
    return QuantumState(op)


# ---------------------------------------------------------------- coherent pieces

def test_coherent_vector_matches_factorials():
    z = 0.7 - 0.3j
    v = coherent_vector(20, z)
    pref = math.exp(-0.5 * abs(z) ** 2)
    for n in range(20):
        want = pref * z**n / math.sqrt(math.factorial(n))
        assert v[n] == pytest.approx(want, rel=1e-13)


def test_coherent_tail_is_poisson_upper_tail():
    z = 1.3 + 0.4j
    mu = abs(z) ** 2
    for level in (1, 3, 8):
        brute = 1.0 - sum(math.exp(-mu) * mu**k / math.factorial(k) for k in range(level))
        assert coherent_tail(z, level) == pytest.approx(brute, rel=1e-10)
    assert coherent_tail(z, 0) == 1.0
    assert coherent_tail(z, -2) == 1.0
    assert coherent_tail(0.0, 5) == 0.0


@pytest.mark.parametrize("level", [1, 2, 5, 27, 100, 341])
def test_coherent_tail_matches_mpmath_on_both_branches(level):
    # mu = |z|^2 from 1e-6 to 600 with mu = level - 1, level, level + 1: the upward
    # sum (mu <= level) and one minus the lower sum (mu > level) both get exercised
    mus = [*np.geomspace(1e-6, 600.0, 41), level - 1.0, float(level), level + 1.0]
    mus = [abs(complex(math.sqrt(mu))) ** 2 for mu in mus]  # the mu that coherent_tail sees
    assert any(mu <= level for mu in mus) and any(mu > level for mu in mus)
    with mpmath.workdps(50):
        for mu in mus:
            got = coherent_tail(math.sqrt(mu), level)
            want = mpmath.gammainc(level, 0, mpmath.mpf(mu), regularized=True)
            if want > 1e-290:
                assert abs(got - want) <= 1e-12 * want, (mu, got, want)
            else:
                assert got < 1e-280, (mu, got, want)


@pytest.mark.parametrize("call", [
    lambda ctx: coherent_tail(1e200, 3),
    lambda ctx: coherent_state_op(ctx, 1e200),
    lambda ctx: position_probability(ctx, QuantumState(np.eye(12)), 1e200),
    lambda ctx: plane_wave(ctx, 1e200),
], ids=["coherent_tail", "coherent_state_op", "position_probability", "plane_wave"])
def test_arguments_whose_square_overflows_are_refused(call):
    # |z|^2 past the largest float is a NumericalError, not Python's OverflowError
    with pytest.raises(NumericalError, match="not a finite float"):
        call(build_fock(ModelParams(theta=THETA, cutoff=12)))


def test_coherent_state_op_is_normalized_rank_one(ctx16):
    psi = coherent_state_op(ctx16, 1.1 - 0.2j)
    assert psi.is_normalized()
    evals = np.linalg.eigvalsh(np.asarray(psi.op) @ np.asarray(psi.op).conj().T)
    assert evals[-1] == pytest.approx(1.0, rel=1e-12)
    assert np.all(evals[:-1] < 1e-13)


def test_coherent_state_op_truncation_gate():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=12))
    with pytest.raises(TruncationError, match="raise the cutoff"):
        coherent_state_op(ctx, 3.0)
    with pytest.raises(TruncationError, match=r"needs N >= 1e\+10\)"):
        coherent_state_op(ctx, 1e5)  # too far out to search: the bound |z|^2 + 4


@pytest.mark.parametrize("z,cutoff", [(1 + 0.5j, 12), (1e-5, 3), (0.3, 4), (3.0, 4), (10j, 30)])
def test_coherent_state_op_advises_the_least_cutoff_it_accepts(z, cutoff):
    with pytest.raises(TruncationError) as refused:
        coherent_state_op(build_fock(ModelParams(theta=THETA, cutoff=cutoff)), z)
    need = int(re.search(r"needs N >= (\d+)\)", str(refused.value)).group(1))
    assert coherent_state_op(build_fock(ModelParams(theta=THETA, cutoff=need)), z).is_normalized()
    with pytest.raises(TruncationError):
        coherent_state_op(build_fock(ModelParams(theta=THETA, cutoff=need - 1)), z)


# ---------------------------------------------------------------- symbols

def test_symbol_closed_forms(ctx16):
    zs = (0.0, 0.8, -0.4 + 1.1j)
    vac = unit_matrix_state(16, 0, 0)
    for z in zs:
        assert symbol(vac)(z) == pytest.approx(math.exp(-abs(z) ** 2), rel=1e-13)
    for m, n in ((1, 0), (2, 3)):
        s = symbol(unit_matrix_state(16, m, n))
        for z in zs:
            want = (
                np.conj(z) ** m
                * z**n
                * math.exp(-abs(z) ** 2)
                / math.sqrt(math.factorial(m) * math.factorial(n))
            )
            assert s(z) == pytest.approx(want, abs=1e-14)
    w = 0.9 + 0.1j
    s = symbol(coherent_state_op(ctx16, w))
    for z in zs:
        assert s(z) == pytest.approx(math.exp(-abs(z - w) ** 2), rel=1e-10)


def test_plane_wave_symbol_is_a_ripple_free_phase():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=40))
    kappa = 0.2
    psi, _ = plane_wave(ctx, kappa)
    s = symbol(psi)
    pref = math.exp(-abs(kappa) ** 2)
    for z in (0.0, 1.5, -0.7 + 2.0j):
        want = pref * np.exp(1j * (kappa * z + np.conj(kappa) * np.conj(z)))
        assert s(z) == pytest.approx(want, rel=1e-12)


def eval_two_sided(table, u, v):
    # the symbol with conj(z) replaced by an independent variable u
    a_dim, b_dim = table.shape
    out = 0.0
    for a in range(a_dim):
        for b in range(b_dim):
            if table[a, b] != 0.0:
                out += table[a, b] * u**a * v**b / math.sqrt(
                    math.factorial(a) * math.factorial(b)
                )
    return out * np.exp(-u * v)


def test_derivatives_match_finite_differences(ctx16):
    rng = np.random.default_rng(12)
    psi = interior_state(rng, 16, 10)
    s = symbol(psi)
    h = 1e-5
    for z in (0.3, -0.6 + 0.4j):
        u, v = np.conj(z), z
        dz = (eval_two_sided(s.table, u, v + h) - eval_two_sided(s.table, u, v - h)) / (2 * h)
        dzbar = (eval_two_sided(s.table, u + h, v) - eval_two_sided(s.table, u - h, v)) / (2 * h)
        assert deriv_z(s)(z) == pytest.approx(dz, rel=1e-8, abs=1e-10)
        assert deriv_zbar(s)(z) == pytest.approx(dzbar, rel=1e-8, abs=1e-10)


def test_mixed_derivatives_commute(ctx16):
    rng = np.random.default_rng(13)
    s = symbol(full_state(rng, 16))
    ab = deriv_z(deriv_zbar(s)).table
    ba = deriv_zbar(deriv_z(s)).table
    assert np.max(np.abs(ab - ba)) < 1e-14


def test_vacuum_derivative_closed_form():
    s = deriv_z(symbol(unit_matrix_state(8, 0, 0)))
    for z in (0.2, 1.0 - 0.5j):
        assert s(z) == pytest.approx(-np.conj(z) * math.exp(-abs(z) ** 2), rel=1e-13)


# ---------------------------------------------------------------- density series

def test_vacuum_density_sums_the_whole_chain(ctx16):
    # the derivative chain of |0><0| resums to a Gaussian exactly
    vac = unit_matrix_state(16, 0, 0)
    c = 2.0 * math.pi * THETA
    for z in (0.0, 0.5, 1.2 - 0.3j):
        want = math.exp(-abs(z) ** 2) / c
        assert density_series(ctx16, vac, z) == pytest.approx(want, rel=1e-12)


def test_ground_density_matches_closed_form():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=80))
    psi0 = ground_state(ctx)
    for z in (0.0, 0.7, 1.4 + 0.9j):
        got = position_probability(ctx, psi0, z)
        assert got == pytest.approx(ground_probability(ctx.params, z), rel=1e-6)


def test_density_rotation_covariance(ctx16):
    rng = np.random.default_rng(14)
    psi = interior_state(rng, 16, 8)
    phi = 0.6
    rotated = rotate(psi, phi)
    for z in (0.4, 0.9 - 0.2j):
        a = position_probability(ctx16, rotated, z)
        b = position_probability(ctx16, psi, np.exp(-1j * phi) * z)
        assert a == pytest.approx(b, rel=1e-10)


def test_density_warns_outside_safe_region():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=12))
    vac = unit_matrix_state(12, 0, 0)
    with pytest.warns(TruncationWarning, match="truncation-unsafe"):
        p = position_probability(ctx, vac, 4.0)
    assert p >= 0.0


def test_density_series_cap_raises(ctx16, monkeypatch):
    rng = np.random.default_rng(15)
    psi = full_state(rng, 16)
    monkeypatch.setattr(measurement, "_SERIES_TERMS", 3)
    with pytest.raises(ConvergenceError, match="3-term cap"):
        density_series(ctx16, psi, 1.0)


def test_density_series_refuses_a_sum_lost_to_cancellation():
    # |0><79| at N = 80: the density is e^{-|z|^2} / (2 pi theta), but deep in the chain the
    # terms cancel below the roundoff floor; at z = 2.2 + 1j the floor drops about as much
    # mass as the kept terms hold, and at -1.5 + 0.5j the kept terms' roundoff bound alone
    # is 1.2e-4 of the sum
    ctx = build_fock(ModelParams(theta=THETA, cutoff=80))
    psi = unit_matrix_state(80, 0, 79)
    for z in (2.2 + 1.0j, -1.5 + 0.5j):
        want = math.exp(-abs(z) ** 2) / (2.0 * math.pi * THETA)
        assert position_probability(ctx, psi, z) == pytest.approx(want, rel=1e-12)
        with pytest.raises(ConvergenceError, match="cancels below roundoff"):
            density_series(ctx, psi, z)
    assert density_series(ctx, psi, 0.4 - 0.3j) == pytest.approx(
        position_probability(ctx, psi, 0.4 - 0.3j), rel=1e-10)


@given(
    st.floats(-6.0, 1.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
)
def test_projector_density_matches_series_over_parameter_box(
    log_theta, log_hbar, log_mass, log_omega, seed, radius, angle
):
    # criterion 9's box; the oscillator ground profile e^{alpha n} carries
    # hbar, m and omega, a seeded interior block makes the state generic
    params = ModelParams(theta=10.0**log_theta, hbar=10.0**log_hbar, mass=10.0**log_mass,
                         omega=10.0**log_omega, cutoff=24)
    ctx = build_fock(params)
    rng = np.random.default_rng(seed)
    ground = np.diag(np.exp(alpha(params) * np.arange(24))).astype(complex)
    ground[18:, 18:] = 0.0
    psi = QuantumState(ground + 0.3 * interior_state(rng, 24, 6).op).normalized()
    z = radius * 2.0 * np.exp(1j * angle)  # |z|^2 <= 4: truncation-safe at N = 24
    scale = 2.0 * math.pi * params.theta  # turns densities into numbers <= 1
    got = scale * position_probability(ctx, psi, z)
    want = scale * density_series(ctx, psi, z)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-14)


def _mp_density(psi_op, theta, z):
    # ||psi^dag |z>||^2 / (2 pi theta) with the truncated |z>, in 50 digits
    with mpmath.workdps(50):
        zm = mpmath.mpc(z.real, z.imag)
        n = psi_op.shape[0]
        v = [mpmath.exp(-abs(zm) ** 2 / 2) * zm**a / mpmath.sqrt(mpmath.factorial(a))
             for a in range(n)]
        ops = [[mpmath.mpc(c.real, c.imag) for c in row] for row in psi_op]
        total = mpmath.mpf(0)
        for b in range(n):
            w = mpmath.fsum(mpmath.conj(ops[a][b]) * v[a] for a in range(n))
            total += abs(w) ** 2
        return float(total / (2 * mpmath.pi * theta))


def test_projector_density_matches_mpmath_at_unsafe_points():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=30))
    psi0 = ground_state(ctx)
    op = np.asarray(psi0.op)
    peak = position_probability(ctx, psi0, 0.0)
    assert peak == pytest.approx(_mp_density(op, THETA, 0j), rel=1e-14)
    for z in (2.6 + 2.6j, 3.5 + 0j):
        with pytest.warns(TruncationWarning, match="truncation-unsafe"):
            got = position_probability(ctx, psi0, z)
        assert abs(got - _mp_density(op, THETA, z)) < 1e-14 * peak


# ---------------------------------------------------------------- grids

def test_grid_spec_validation():
    with pytest.raises(UsageError, match="points"):
        GridSpec((-1.0, 1.0), (-1.0, 1.0), (1, 10))
    with pytest.raises(UsageError, match="increasing"):
        GridSpec((1.0, -1.0), (-1.0, 1.0))


def test_grid_matches_pointwise_density():
    # corner coherent tail above level N-3 stays under 1e-8: all points safe
    ctx = build_fock(ModelParams(theta=THETA, cutoff=36))
    psi = coherent_state_op(ctx, 0.5)
    grid = GridSpec((-0.9, 0.9), (-0.9, 0.9), (21, 21))
    res = probability_grid(ctx, psi, grid)
    assert res.warnings == ()
    assert res.values.shape == (21, 21)
    assert np.all(res.values >= 0.0)
    for i in (0, 7, 16):
        for j in (3, 11):
            z = (res.x1[i] + 1j * res.x2[j]) / math.sqrt(2.0 * THETA)
            assert res.values[i, j] == pytest.approx(
                position_probability(ctx, psi, z), rel=1e-12
            )
    # the window clips Gaussian tails, so the quadrature undershoots 1 a little
    assert 0.8 < res.normalization_estimate < 1.0


def test_grid_determinism(ctx16):
    psi = coherent_state_op(ctx16, 0.4 + 0.3j)
    grid = GridSpec((-1.0, 1.0), (-1.0, 1.0), (15, 15))
    a = probability_grid(ctx16, psi, grid)
    b = probability_grid(ctx16, psi, grid)
    assert np.array_equal(a.values, b.values)


def test_grid_flags_unsafe_points():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=10))
    vac = unit_matrix_state(10, 0, 0)
    grid = GridSpec((-3.0, 3.0), (-3.0, 3.0), (7, 7))
    res = probability_grid(ctx, vac, grid)
    assert len(res.warnings) == 1 and "truncation-unsafe" in res.warnings[0]
    assert np.all(res.values >= 0.0)


def test_grid_counts_the_points_coherent_tail_flags():
    # the grid's bisected count gives the same verdict as coherent_tail at every point
    ctx = build_fock(ModelParams(theta=THETA, cutoff=30))
    grid = GridSpec((-2.0, 2.5), (-1.5, 2.0), (31, 29))
    res = probability_grid(ctx, ground_state(ctx), grid)
    zs = [(a + 1j * b) / math.sqrt(2.0 * THETA) for a in res.x1 for b in res.x2]
    unsafe = sum(coherent_tail(z, 27) >= 1e-8 for z in zs)
    assert 0 < unsafe < len(zs)
    assert res.warnings[0].startswith(f"{unsafe} of {len(zs)} grid points truncation-unsafe")


def test_grid_bisected_count_matches_every_distinct_radius():
    # a 201 x 201 window that the unsafe radius cuts: 38502 distinct radii, 16 bisection steps
    ctx = build_fock(ModelParams(theta=THETA, cutoff=30))
    grid = GridSpec((-2.0, 2.5), (-1.5, 2.0), (201, 201))
    radii = np.abs(_grid_points(grid))
    distinct = np.unique(radii)
    unsafe_radii = [r for r in distinct if coherent_tail(r, 27) >= 1e-8]
    unsafe = int(np.sum(radii >= unsafe_radii[0]))
    assert 0 < len(unsafe_radii) < len(distinct)
    assert unsafe_radii == list(distinct[len(distinct) - len(unsafe_radii):])  # the tail grows with |z|
    res = probability_grid(ctx, ground_state(ctx), grid)
    assert res.warnings[0].startswith(f"{unsafe} of {201 * 201} grid points truncation-unsafe")


def test_an_unsafe_grid_does_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma on its first call in a process, about 15 ms of a CLI command
    code = textwrap.dedent("""
        import sys
        from ncqm import GridSpec, ModelParams, build_fock, ground_state, probability_grid

        ctx = build_fock(ModelParams(theta=0.1, cutoff=30))
        before = "numpy.ma" in sys.modules
        res = probability_grid(ctx, ground_state(ctx), GridSpec((-2.0, 2.5), (-1.5, 2.0), (31, 29)))
        assert "truncation-unsafe" in res.warnings[0]
        print(before, "numpy.ma" in sys.modules)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


# ---------------------------------------------------------------- radial route

def _routes(monkeypatch):
    """Record the route _densities takes on each call."""
    taken = []
    for name in ("_radial_densities", "_projector_densities"):
        def spy(*args, _f=getattr(measurement, name), _name=name):
            taken.append(_name)
            return _f(*args)
        monkeypatch.setattr(measurement, name, spy)
    return taken


def _diagonal_state(rng, n, d, margin=6):
    """Seeded normalized state whose nonzero entries all lie on m - l = d, below level n - margin."""
    op = np.zeros((n, n), dtype=complex)
    m = np.arange(max(d, 0), n - margin + min(d, 0))
    op[m, m - d] = rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m))
    return QuantumState(op).normalized()


def _grid_points(grid):
    x1, x2 = grid.axes()
    return ((x1[:, None] + 1j * x2[None, :]) / math.sqrt(2.0 * THETA)).reshape(-1)


def _radial_cases():
    ctx80 = build_fock(ModelParams(theta=THETA, cutoff=80))
    rng = np.random.default_rng(21)
    states = [excited_state(ctx80, *q) for q in ((1, 0), (2, 1), (1, 3), (0, 4))]
    return [(ctx80, psi) for psi in (*states, _diagonal_state(rng, 80, 2), _diagonal_state(rng, 80, -3))]


def test_radial_grid_matches_projector(monkeypatch):
    # the density workload's ground grid: 61 x 61 over its extent at the CLI's auto cutoff 344
    params = ModelParams(theta=THETA, cutoff=344)
    s = THETA * lambdas(params)[1] / params.hbar**2
    ext = 4.5 * math.sqrt(THETA / (s * (2.0 - s)))
    ctx = build_fock(params)
    cases = [(ctx, ground_state(ctx), GridSpec((-ext, ext), (-ext, ext)))]
    radial = _radial_cases()
    # the corner units |79><0| and |0><79| sit at both ends of the radial route's diagonal read;
    # the series oracle loses digits on them, so only the projector checks them
    rng = np.random.default_rng(23)
    radial += [(radial[0][0], _diagonal_state(rng, 80, d, margin=0)) for d in (79, -79)]
    cases += [(*case, GridSpec((-1.5, 1.5), (-1.2, 1.8), (41, 37))) for case in radial]
    taken = _routes(monkeypatch)
    for ctx, psi, grid in cases:
        taken.clear()
        got = probability_grid(ctx, psi, grid).values
        assert taken == ["_radial_densities"]
        want = _projector_densities(np.asarray(psi.op), _grid_points(grid)).reshape(got.shape)
        want /= 2.0 * math.pi * THETA
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(want)


def test_radial_density_matches_series(monkeypatch):
    taken = _routes(monkeypatch)
    for ctx, psi in _radial_cases():
        for z in (0.0, 0.05 + 0.02j, 0.4 - 0.3j, 1.1j, -1.5 + 0.5j, 2.2 + 1.0j):
            got = position_probability(ctx, psi, z)
            assert got == pytest.approx(density_series(ctx, psi, z), rel=1e-10)
    assert set(taken) == {"_radial_densities"}


@pytest.mark.parametrize("cutoff", [30, 80])
def test_excited_states_lie_on_one_diagonal_and_take_the_radial_route(monkeypatch, cutoff):
    # excited_state writes only the diagonal d = n1 - n2, so every other entry is an exact zero
    # and the route is radial
    ctx = build_fock(ModelParams(theta=THETA, cutoff=cutoff))
    taken = _routes(monkeypatch)
    for n1, n2 in ((1, 3), (2, 2), (3, 1), (3, 3)):
        op = np.asarray(excited_state(ctx, n1, n2).op)
        m, l = np.indices(op.shape)
        assert np.all(op[m - l != n1 - n2] == 0.0) and np.any(op[m - l == n1 - n2] != 0.0)
        taken.clear()
        position_probability(ctx, QuantumState(op), 0.3 - 0.1j)
        assert taken == ["_radial_densities"]


def test_density_series_at_origin_sums_row_zero(ctx16):
    # at z = 0 term k is |psi_0k|^2: leading zero terms must not stop the series
    rng = np.random.default_rng(23)
    for psi in (unit_matrix_state(16, 0, 3), _diagonal_state(rng, 16, -3)):
        want = position_probability(ctx16, psi, 0.0)
        assert want > 0.0
        assert density_series(ctx16, psi, 0.0) == pytest.approx(want, rel=1e-10)
    assert density_series(ctx16, unit_matrix_state(16, 0, 3), 0.0) == pytest.approx(
        1.0 / (2.0 * math.pi * THETA), rel=1e-12)
    # near z = 0 the leading terms underflow to zero, which is not convergence either
    late = unit_matrix_state(16, 0, 3)
    for z in (1e-170, 1e-200):
        want = position_probability(ctx16, late, z)
        assert want == pytest.approx(1.5915, rel=1e-4)
        assert density_series(ctx16, late, z) == pytest.approx(want, rel=1e-10)
    ctx = build_fock(ModelParams(theta=THETA, cutoff=344))
    assert density_series(ctx, ground_state(ctx), 0.0) == pytest.approx(
        position_probability(ctx, ground_state(ctx), 0.0), rel=1e-10)


def test_radial_route_needs_exact_zeros(monkeypatch, ctx16):
    psi = _diagonal_state(np.random.default_rng(22), 16, 1)
    op = np.array(psi.op)
    op[3, 5] = 1e-300
    taken = _routes(monkeypatch)
    position_probability(ctx16, psi, 0.3)
    position_probability(ctx16, QuantumState(op), 0.3)
    assert taken == ["_radial_densities", "_projector_densities"]


def test_grid_bases_stay_under_the_block_cap(monkeypatch):
    # a 1001 x 1001 grid: one basis row per distinct radius on the radial route, per point on the other
    ctx = build_fock(ModelParams(theta=THETA, cutoff=40))
    grid = GridSpec((-1.0, 1.0), (-1.0, 1.0), (1001, 1001))
    shapes = []

    def spy(zs, count, _f=measurement._coherent_basis):
        out = _f(zs, count)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(measurement, "_coherent_basis", spy)
    radii = len(np.unique(np.abs(_grid_points(grid))))
    for psi, rows in ((ground_state(ctx), radii), (coherent_state_op(ctx, 0.5 - 0.2j), 1001**2)):
        shapes.clear()
        res = probability_grid(ctx, psi, grid)
        assert len(shapes) > 1 and all(p * n <= _BLOCK and n == 40 for p, n in shapes)
        assert sum(p for p, _ in shapes) == rows
        for i, j in ((0, 0), (500, 500), (123, 877)):
            z = (res.x1[i] + 1j * res.x2[j]) / math.sqrt(2.0 * THETA)
            assert res.values[i, j] == pytest.approx(position_probability(ctx, psi, z), rel=1e-12)


def _traced_peak(fn):
    """Peak bytes numpy and Python allocate while fn runs; fn's result is dropped inside."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_measurement_paths_never_build_the_ladder_operators():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=344))
    ground = ground_state(ctx)
    excited_state(ctx, 1, 2)
    coherent = coherent_state_op(ctx, 0.5 - 0.3j)
    for psi in (ground, coherent):
        probability_grid(ctx, psi, GridSpec((-1.0, 1.0), (-1.0, 1.0), (9, 9)))
        position_probability(ctx, psi, 0.2 + 0.1j)
        post_measurement(ctx, psi, 0.2 + 0.1j)
    povm_identity_residual(ctx, 5.0 * math.sqrt(THETA))
    small = build_fock(ModelParams(theta=THETA, cutoff=12))
    povm_matrix(small, 0.4 + 0.1j)  # an N^4 element: 224 GB at N = 344
    assert set(ctx.__dict__) == set(small.__dict__) == {"params"}  # neither root nor r_sq_diag is built


def test_grid_kernels_allocate_about_a_block():
    # 15.2 MB and 26.8 MB with 2^20-entry blocks and the ladders built with the context
    grid = GridSpec((-2.0, 2.0), (-2.0, 2.0), (61, 61))

    def ground():
        ctx = build_fock(ModelParams(theta=THETA, cutoff=344))
        probability_grid(ctx, ground_state(ctx), grid)

    def coherent():
        ctx = build_fock(ModelParams(theta=THETA, cutoff=138))
        probability_grid(ctx, coherent_state_op(ctx, 1.5 + 0.5j), grid)

    assert _traced_peak(ground) < 6e6
    assert _traced_peak(coherent) < 6e6


def test_povm_matrix_is_its_one_allocation():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=24))
    nbytes = 24**4 * 16
    assert _traced_peak(lambda: povm_matrix(ctx, 0.7 + 0.2j)) < 1.25 * nbytes  # 2.0x as a kron


# ---------------------------------------------------------------- POVM

@pytest.mark.parametrize("n", [2, 20, 24, 48])
def test_povm_matrix_equals_the_kron_form(n):
    ctx = build_fock(ModelParams(theta=THETA, cutoff=n))
    for z in (0.0, 0.7 + 0.2j, -1.3 + 0.4j):
        v = coherent_vector(n, z)
        want = np.kron(np.outer(v, v.conj()), np.eye(n)) / (2.0 * math.pi * THETA)
        assert np.array_equal(povm_matrix(ctx, z), want)


def test_povm_matrix_is_hermitian_psd(ctx16):
    pi_z = povm_matrix(ctx16, 0.8 - 0.5j)
    assert pi_z.shape == (256, 256)
    assert np.max(np.abs(pi_z - pi_z.conj().T)) < 1e-14
    evals = np.linalg.eigvalsh(pi_z)
    assert evals[0] >= -1e-12 * evals[-1]


def test_povm_quadratic_form_matches_series(ctx16):
    rng = np.random.default_rng(16)
    psi = interior_state(rng, 16, 8)
    for z in (0.0, 0.6 + 0.2j):
        pi_z = povm_matrix(ctx16, z)
        v = vec(psi.op)
        quad = float(np.real(v.conj() @ pi_z @ v))
        assert quad == pytest.approx(density_series(ctx16, psi, z), rel=1e-12)


def test_povm_vacuum_expectation_at_origin(ctx16):
    vac = unit_matrix_state(16, 0, 0)
    v = vec(vac.op)
    quad = float(np.real(v.conj() @ povm_matrix(ctx16, 0.0) @ v))
    assert quad == pytest.approx(1.0 / (2.0 * math.pi * THETA), rel=1e-13)


def test_post_measurement_normalizes(ctx16):
    psi = coherent_state_op(ctx16, 0.5)
    out = post_measurement(ctx16, psi, 0.5)
    assert out.is_normalized()


def test_post_measurement_matches_dense_square_root():
    # sqrt(pi_z) psi through the eigendecomposition of the dense POVM element
    ctx = build_fock(ModelParams(theta=THETA, cutoff=8))
    psi = interior_state(np.random.default_rng(17), 8, 2)
    z = 0.5 - 0.7j
    evals, evecs = np.linalg.eigh(povm_matrix(ctx, z))
    evals = np.where(evals > 1e-12 * evals[-1], evals, 0.0)  # roundoff zeros stay zero
    root = (evecs * np.sqrt(evals)) @ evecs.conj().T
    phi = root @ vec(psi.op)
    want = unvec(phi / np.linalg.norm(phi), 8)
    got = np.asarray(post_measurement(ctx, psi, z).op)
    assert np.max(np.abs(got - want)) < 1e-12


def test_post_measurement_impossible_detection():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=30))
    top = unit_matrix_state(30, 29, 29)
    with pytest.raises(MeasurementImpossibleError):
        post_measurement(ctx, top, 0.0)


def test_povm_resolves_identity_on_low_levels():
    ctx = build_fock(ModelParams(theta=THETA, cutoff=12))
    res = povm_identity_residual(ctx, 5.0 * math.sqrt(THETA), points=31, span=3)
    assert res < 1e-3
    with pytest.raises(UsageError, match="span"):
        povm_identity_residual(ctx, 1.0, span=13)
    with pytest.raises(UsageError, match="span"):
        povm_identity_residual(ctx, 1.0, span=0)
    with pytest.raises(UsageError, match="points"):
        povm_identity_residual(ctx, 1.0, points=1)
    for extent in (math.nan, math.inf):  # refused, not an unconverged SVD
        with pytest.raises(UsageError, match="finite extent"):
            povm_identity_residual(ctx, extent)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("extent", [1e160, 1e200, 1e308])
def test_identity_extents_that_overflow_are_refused(extent):
    # the cell area or |z|^2 overflows to inf, and inf * 0 used to reach the SVD as NaN
    ctx = build_fock(ModelParams(theta=THETA, cutoff=12))
    with pytest.raises(UsageError, match="too large"):
        povm_identity_residual(ctx, extent)
