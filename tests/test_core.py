"""State space, superoperator plumbing, and the vectorization convention."""

import math
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncqm import (
    ConfigurationError,
    ModelParams,
    QuantumState,
    SuperOperator,
    UsageError,
    build_fock,
    coherent_state_op,
    hs_inner,
    support_weight,
    time_reverse_conjugate,
    unvec,
    vec,
)
from ncqm import core
from conftest import (apply_scale, dense_apply, dense_sides, fock, full_state, interior_state, random_band,
                      random_superop, rounded_r_sq_diag)


# ---------------------------------------------------------------- parameters

@pytest.mark.parametrize(
    "kwargs",
    [
        {"theta": -0.1},
        {"theta": float("nan")},
        {"theta": float("inf")},
        {"theta": 0.1, "hbar": 0.0},
        {"theta": 0.1, "hbar": -1.0},
        {"theta": 0.1, "mass": 0.0},
        {"theta": 0.1, "omega": -0.5},
        {"theta": 0.1, "cutoff": 1},
        {"theta": 0.1, "cutoff": 2.5},
    ],
)
def test_params_validation_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("name", ["theta", "hbar", "mass", "omega"])
def test_params_refuse_values_whose_square_overflows(name):
    ModelParams(**{"theta": 0.1, name: 1e154})
    with pytest.raises(ConfigurationError, match=f"^{name} = 1e\\+200 is too large"):
        ModelParams(**{"theta": 0.1, name: 1e200})


def test_params_accepts_commutative_point_and_coerces_cutoff():
    p = ModelParams(theta=0.0, cutoff=8.0)
    assert p.theta == 0.0
    assert p.cutoff == 8 and isinstance(p.cutoff, int)


def test_build_fock_rejects_commutative_point():
    with pytest.raises(ConfigurationError):
        build_fock(ModelParams(theta=0.0))


# ---------------------------------------------------------------- Fock operators

def test_annihilator_matrix_elements():
    ctx = build_fock(ModelParams(theta=0.1, cutoff=9))
    b = fock(ctx).b
    for n in range(1, 9):
        assert b[n - 1, n] == pytest.approx(math.sqrt(n), abs=0.0)
        b[n - 1, n] = 0.0
    assert not b.any()


def test_truncated_ladder_commutator_has_top_level_defect():
    n = 12
    dense = fock(build_fock(ModelParams(theta=0.1, cutoff=n)))
    comm = dense.b @ dense.bdag - dense.bdag @ dense.b
    expected = np.eye(n, dtype=complex)
    expected[n - 1, n - 1] -= n
    # entries are (sqrt n)^2 differences, exact only up to one rounding step
    assert np.max(np.abs(comm - expected)) < 1e-14 * n


def test_positions_hermitian_with_exact_commutator():
    n = 10
    theta = 0.3
    dense = fock(build_fock(ModelParams(theta=theta, cutoff=n)))
    assert np.max(np.abs(dense.x1 - dense.x1.conj().T)) == 0.0
    assert np.max(np.abs(dense.x2 - dense.x2.conj().T)) == 0.0
    comm = dense.x1 @ dense.x2 - dense.x2 @ dense.x1
    expected = 1j * theta * np.eye(n, dtype=complex)
    expected[n - 1, n - 1] -= 1j * theta * n
    assert np.max(np.abs(comm - expected)) < 1e-15 * theta * n


def test_radius_squared_diagonal_and_truncation_value():
    # r^2 = theta(2 b^dag b + 1) is diagonal: theta(2n+1) on interior levels, and the top level loses the
    # b b^dag part.  ctx.r_sq_diag rounds each entry once; the dense product sums its roundings in BLAS order
    for cutoff in (2, 3, 8, 11, 160, 400):
        for theta in (0.1, 0.37, 1.0, 1e-3):
            ctx = build_fock(ModelParams(theta=theta, cutoff=cutoff))
            r_sq = fock(ctx).r_sq
            dense = np.diagonal(r_sq)
            assert not (r_sq - np.diag(dense)).any() and not dense.imag.any()
            got = ctx.r_sq_diag
            assert got.dtype == float and got.tobytes() == rounded_r_sq_diag(ctx).tobytes()
            assert np.all(np.abs(got - dense.real) <= 4 * np.spacing(got))


def test_operators_built_on_first_read_match_the_eager_construction():
    # the context holds two closed-form vectors and none of the dense Fock matrices
    theta, n = 0.3, 13
    ctx = build_fock(ModelParams(theta=theta, cutoff=n))
    assert set(ctx.__dict__) == {"params"}
    want = {"r_sq_diag": rounded_r_sq_diag(ctx), "root": np.sqrt(np.arange(1, n))}
    for name, ref in want.items():
        got = getattr(ctx, name)
        assert got is getattr(ctx, name)
        assert got.flags.c_contiguous and not got.flags.writeable
        assert got.dtype == float and got.tobytes() == ref.tobytes()
    assert set(ctx.__dict__) == {"params", "root", "r_sq_diag"}
    assert not any(hasattr(ctx, name) for name in ("b", "bdag", "x1", "x2", "r_sq"))


def test_context_arrays_are_readonly(ctx01):
    with pytest.raises(ValueError):
        ctx01.root[0] = 0.0
    with pytest.raises(ValueError):
        ctx01.r_sq_diag[0] = 1.0


# ---------------------------------------------------------------- states

def test_state_requires_square_matrix():
    with pytest.raises(UsageError):
        QuantumState(np.zeros((3, 4)))
    with pytest.raises(UsageError):
        QuantumState(np.zeros(5))


def test_state_norm_cache_and_normalization(rng):
    op = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    psi = QuantumState(op)
    assert psi.norm_sq == pytest.approx(np.sum(np.abs(op) ** 2), rel=1e-14)
    assert psi.norm == pytest.approx(math.sqrt(psi.norm_sq), rel=1e-15)
    unit = psi.normalized()
    assert unit.is_normalized()
    assert not QuantumState(2.0 * op).is_normalized()


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf), 1e160],
                         ids=["nan", "inf", "imaginary-inf", "norm-overflow"])
def test_state_refuses_non_finite_matrices(entry):
    op = np.eye(4, dtype=complex)
    op[1, 2] = entry
    with pytest.raises(UsageError, match="non-finite"):
        QuantumState(op)


def test_zero_state_cannot_be_normalized():
    with pytest.raises(UsageError):
        QuantumState(np.zeros((4, 4))).normalized()


def test_state_matrix_frozen_and_dagger_involutive(rng):
    psi = full_state(rng, 5)
    with pytest.raises(ValueError):
        psi.op[0, 0] = 9.0
    assert np.array_equal(psi.dagger().dagger().op, psi.op)
    assert psi.dagger().norm_sq == pytest.approx(psi.norm_sq, rel=1e-15)


# ---------------------------------------------------------------- inner product

def test_hs_inner_conjugate_symmetry_and_linearity(rng):
    phi, psi, chi = (full_state(rng, 7) for _ in range(3))
    assert hs_inner(phi, psi) == pytest.approx(np.conj(hs_inner(psi, phi)), abs=1e-14)
    lhs = hs_inner(phi, QuantumState(2.5j * psi.op + chi.op))
    rhs = 2.5j * hs_inner(phi, psi) + hs_inner(phi, chi)
    assert lhs == pytest.approx(rhs, abs=1e-13)
    assert hs_inner(psi, psi).real == pytest.approx(psi.norm_sq, rel=1e-14)


def test_hs_inner_cutoff_mismatch_raises(rng):
    with pytest.raises(UsageError):
        hs_inner(full_state(rng, 5), full_state(rng, 6))


def test_hs_inner_coherent_overlap_closed_form(ctx01):
    # tr(|z><z| |w><w|) = |<z|w>|^2 = exp(-|z - w|^2) for unit-trace projectors
    z, w = 0.3, 0.1 + 0.2j
    pz = coherent_state_op(ctx01, z)
    pw = coherent_state_op(ctx01, w)
    got = hs_inner(pz, pw)
    assert got.imag == pytest.approx(0.0, abs=1e-14)
    assert got.real == pytest.approx(math.exp(-abs(z - w) ** 2), rel=1e-12)


# ---------------------------------------------------------------- vec convention

def test_vec_index_convention():
    n = 4
    op = np.arange(n * n, dtype=complex).reshape(n, n)
    v = vec(op)
    for m in range(n):
        for k in range(n):
            assert v[m * n + k] == op[m, k]


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
def test_vec_unvec_roundtrip(cutoff, seed):
    op = np.random.default_rng(seed).standard_normal((cutoff, cutoff))
    assert np.array_equal(unvec(vec(op), cutoff), op)


# ---------------------------------------------------------------- superoperators

def test_superop_rejects_empty_or_ragged_terms():
    # an empty term list, an offset outside the block, or a band of the wrong length
    with pytest.raises(UsageError, match="at least one"):
        SuperOperator(3, [])
    for bad in ((3, np.ones(0)), (-3, np.ones(0)), (1, np.ones(3)), (0, np.ones(2)), (0, np.ones((3, 1)))):
        for term in ((bad, None), (None, bad), ((0, np.ones(3)), bad)):
            with pytest.raises(UsageError, match="cutoff 3 needs"):
                SuperOperator(3, [term])


def test_apply_matches_materialized_matrix(rng):
    s = random_superop(rng, 6)
    psi = full_state(rng, 6)
    direct = s.apply(psi).op
    via_matrix = unvec(s.matrix @ vec(psi.op), 6)
    assert np.max(np.abs(direct - via_matrix)) < 1e-12 * np.max(np.abs(direct))


@pytest.mark.parametrize("cutoff", [2, 3, 8, 32])
def test_band_apply_matches_the_dense_terms(rng, cutoff):
    s = random_superop(rng, cutoff, nterms=6)
    for psi in (full_state(rng, cutoff), interior_state(rng, cutoff, cutoff // 2)):
        got = s.apply(psi).op
        assert not got.flags.writeable
        assert np.max(np.abs(got - dense_apply(s, psi))) <= 1e-15 * apply_scale(s, psi)


def test_dagger_is_adjoint_for_hs_inner(rng):
    s = random_superop(rng, 6)
    phi, psi = full_state(rng, 6), full_state(rng, 6)
    lhs = hs_inner(phi, s.apply(psi))
    rhs = hs_inner(s.dagger().apply(phi), psi)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("cutoff", [2, 3, 8])
def test_band_algebra_matches_the_dense_sides(rng, cutoff):
    # @, dagger and time_reverse_conjugate against the dense product and conjugate transpose;
    # at N = 2 and 3 some products leave the block and are dropped
    s1, s2 = random_superop(rng, cutoff), random_superop(rng, cutoff)
    want = s1.matrix @ s2.matrix
    assert np.max(np.abs((s1 @ s2).matrix - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(s1.dagger().matrix, s1.matrix.conj().T)
    flipped = [(right.conj().T, left.conj().T) for left, right in dense_sides(s1)]
    for got, want in zip(dense_sides(time_reverse_conjugate(s1)), flipped, strict=True):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("cutoff", [2, 3, 8])
def test_band_products_equal_the_dense_products(cutoff):
    # one shifted product per entry: equal in value to the dense product's band where a side is real,
    # within a rounding where both are complex; past the block the dense product is zero
    rng = np.random.default_rng(cutoff)
    for real_a, real_b in ((True, True), (True, False), (False, True), (False, False)):
        for _ in range(30):
            a, b = random_band(rng, cutoff, real_a), random_band(rng, cutoff, real_b)
            dense = np.diag(a[1], a[0]) @ np.diag(b[1], b[0])
            got = core._product(a, b, cutoff)
            if got is False:
                assert abs(a[0] + b[0]) >= cutoff and not dense.any()
                continue
            if real_a or real_b:  # the dense product is this one band, entry for entry
                assert np.array_equal(np.diag(got[1], got[0]), dense)
            else:
                want = np.diagonal(dense, got[0])
                assert np.max(np.abs(got[1] - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


def test_a_product_of_bands_past_the_block_is_zero():
    b = SuperOperator(3, [((1, np.ones(2)), None)])
    zero = b @ b @ b  # b^3 = 0 on three levels
    assert np.array_equal(zero.matrix, np.zeros((9, 9)))
    assert not zero.apply(QuantumState(np.ones((3, 3)))).op.any()


def test_compose_add_scale_match_pointwise_actions(rng):
    s1 = random_superop(rng, 5)
    s2 = random_superop(rng, 5)
    psi = full_state(rng, 5)
    scale = np.max(np.abs(s1.apply(s2.apply(psi)).op))
    assert np.max(np.abs((s1 @ s2).apply(psi).op - s1.apply(s2.apply(psi)).op)) < 1e-12 * scale
    assert np.max(np.abs((s1 + s2).apply(psi).op - (s1.apply(psi).op + s2.apply(psi).op))) < 1e-12 * scale
    assert np.max(np.abs((s1 - s2).apply(psi).op - (s1.apply(psi).op - s2.apply(psi).op))) < 1e-12 * scale
    c = 0.3 - 1.7j
    assert np.max(np.abs((c * s1).apply(psi).op - c * s1.apply(psi).op)) < 1e-12 * scale


def test_frozen_terms_are_shared_and_other_inputs_copied(rng):
    a, b = random_superop(rng, 5), random_superop(rng, 5)
    total = a + b
    for new, old in zip(total.terms, a.terms + b.terms, strict=True):
        for x, y in zip(new, old):
            assert (x is None and y is None) or x[1] is y[1]
    psi = full_state(rng, 5)
    assert QuantumState(psi.op).op is psi.op

    base = np.ones(5)
    view = base[:]
    view.setflags(write=False)  # frozen, but base can still change it
    for w in (base, view, base + 0j):
        s = SuperOperator(5, [((0, w), None)])
        kept = s.terms[0][0][1]
        assert kept is not w and not kept.flags.writeable and kept.dtype == float  # no imaginary part: real
    base[0] = 7.0
    assert kept[0] == 1.0 and s.terms[0][1] is None


def test_superop_cutoff_mismatch_raises(rng):
    s5, s6 = random_superop(rng, 5), random_superop(rng, 6)
    with pytest.raises(UsageError):
        s5.apply(full_state(rng, 6))
    with pytest.raises(UsageError):
        s5 @ s6
    with pytest.raises(UsageError):
        s5 + s6


# ---------------------------------------------------------------- support weight

def test_support_weight_contract(rng):
    n = 10
    psi = interior_state(rng, n, 3)
    assert support_weight(psi, n - 3) == 0.0
    assert support_weight(psi, n) == 0.0
    assert support_weight(psi, 0) == pytest.approx(1.0, rel=1e-14)

    top = np.zeros((n, n), dtype=complex)
    top[n - 1, n - 1] = 1.0
    assert support_weight(QuantumState(top), n - 1) == pytest.approx(1.0, rel=1e-15)

    full = full_state(rng, n)
    weights = [support_weight(full, m) for m in range(n + 1)]
    assert all(a >= b for a, b in zip(weights, weights[1:]))


def test_support_weight_validation(rng):
    psi = full_state(rng, 6)
    with pytest.raises(UsageError):
        support_weight(psi, 7)
    with pytest.raises(UsageError):
        support_weight(psi, -1)
    with pytest.raises(UsageError):
        support_weight(QuantumState(np.zeros((6, 6))), 2)


# ---------------------------------------------------------------- package surface

def test_package_exports_each_module_list_once():
    import ncqm
    from ncqm import core, dynamics, measurement, observables, oscillator

    modules = (core, dynamics, measurement, observables, oscillator)
    assert ncqm.__all__ == [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert len(set(ncqm.__all__)) == len(ncqm.__all__)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(ncqm, name) is getattr(mod, name), name
    assert all(isinstance(mod, types.ModuleType) for mod in modules)  # no export shadows a module


def test_unit_offsets_are_built_once_per_cutoff_and_read_only():
    from ncqm.core import _unit_offsets

    offsets = _unit_offsets(7)
    assert offsets is _unit_offsets(7)
    assert not offsets.flags.writeable
    m, l = np.indices((7, 7))
    np.testing.assert_array_equal(offsets, m - l)
