"""Hamiltonians, spectra, evolution, plane waves, and the continuity identity."""

import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from ncqm import (
    ConfigurationError,
    ConsistencyError,
    Hamiltonian,
    HamiltonianSpec,
    ModelParams,
    NumericalError,
    QuantumState,
    SuperOperator,
    TruncationError,
    UsageError,
    ValidationError,
    angular_momentum,
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
    ladder_ops,
    momentum_ops,
    plane_wave,
    position_ops,
    solve_spectrum,
    spectrum_levels,
    vec,
)
from ncqm import dynamics
from conftest import apply_scale, dense_apply, dense_sides, full_state, interior_state

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


def linear_x1_table(coeff):
    # coeff (b + bdag): shifts k by one, so g = 1 and all N^2 units form one class
    t = np.zeros((2, 2), dtype=complex)
    t[0, 1] = t[1, 0] = coeff
    return t


def near_free_table():
    # 1e-14 (b^2 + bdag^2): g = 2, and the free particle's pairs k, -k (one class) stay
    # degenerate within 1e-13 of the scale: runs inside one class block need the label rotation
    t = np.zeros((3, 3), dtype=complex)
    t[0, 2] = t[2, 0] = 1e-14
    return t


def complex_table():
    # i (bdag^2 - b^2): Hermitian with imaginary entries, g = 2, complex class blocks
    t = np.zeros((3, 3), dtype=complex)
    t[2, 0] = 1j
    t[0, 2] = -1j
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
    with pytest.raises(ValidationError, match="nonempty"):
        HamiltonianSpec("potential", potential_coeffs=np.zeros((0, 0)))
    with pytest.raises(ValidationError, match="Hermitian"):
        HamiltonianSpec("potential", potential_coeffs=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="no potential"):
        HamiltonianSpec("free", potential_coeffs=np.eye(2))
    for bad in (np.nan, np.inf):  # a non-finite Hermiticity defect is a defect, not a pass
        with pytest.raises(ValidationError, match="Hermitian"):
            HamiltonianSpec("potential", potential_coeffs=[[bad]])
    spec = HamiltonianSpec("potential", potential_coeffs=np.array([[0.0, 2.0], [2.0, 1.0]]))
    assert spec.potential_coeffs.dtype == complex


# ---------------------------------------------------------------- assembly oracle

def kron_oracle(ctx, v):
    # L psi R <-> kron(L, R.T) on row-major vec: c [x,[x, .]] for x1 and x2, plus V on the left
    n = ctx.cutoff
    eye = np.eye(n)
    p = ctx.params
    c = p.hbar**2 / (2.0 * p.mass * p.theta**2)
    out = np.kron(v, eye).astype(complex)
    for x in (np.asarray(ctx.x1), np.asarray(ctx.x2)):
        ad = np.kron(x, eye) - np.kron(eye, x.T)
        out += c * (ad @ ad)
    return out


def oracle_potential(ctx, kind):
    # each kind's V from the position and ladder matrices, independently of _potential_matrix
    p = ctx.params
    x1, x2, b, bd = (np.asarray(a) for a in (ctx.x1, ctx.x2, ctx.b, ctx.bdag))
    return {
        "free": np.zeros((ctx.cutoff, ctx.cutoff)),
        "oscillator": 0.5 * p.mass * p.omega**2 * (x1 @ x1 + x2 @ x2),
        "x1-squared-table": 0.5 * p.theta * (b @ b + bd @ bd + 2.0 * bd @ b + np.eye(ctx.cutoff)),
        "complex-table": 1j * (bd @ bd - b @ b),
    }[kind]


SPECS = {
    "free": FREE,
    "oscillator": OSC,
    "x1-squared-table": HamiltonianSpec("potential", potential_coeffs=x1_squared_table(0.1)),
    "complex-table": HamiltonianSpec("potential", potential_coeffs=complex_table()),
}


@pytest.mark.parametrize("kind", list(SPECS))
def test_hamiltonian_matches_kron_oracle(ctx12, kind):
    # the four banded terms against the double commutators, for every kind of potential
    h = hamiltonian(ctx12, SPECS[kind])
    # c r^2 + V one term per band (three for the tables), c r^2 on the right and the two hops
    assert len(h.terms) == (6 if kind.endswith("table") else 4)
    assert all(side is None or side[1].ndim == 1 for term in h.terms for side in term)
    v = oracle_potential(ctx12, kind)
    assert np.max(np.abs(h.v_matrix - v)) < 1e-15
    assert kind != "free" or not h.v_matrix.any()
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


def _apply_states(rng, n):
    # dense, with exact zeros (whole rows and columns, the boundary included), and real with signed zeros
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    holes = dense * (rng.random((n, n)) < 0.6)
    holes[0], holes[:, -1] = 0.0, 0.0
    real = np.where(rng.random((n, n)) < 0.3, -0.0, rng.standard_normal((n, n))).astype(complex)
    return [QuantumState(a) for a in (dense, holes, real)]


@pytest.mark.parametrize("kind", [*SPECS, "diagonal-table"])
@pytest.mark.parametrize("cutoff", [2, 3, 8, 28, 32])
def test_hamiltonian_apply_equals_the_term_sum_bit_for_bit(kind, cutoff):
    # the bands against the dense products of their sides: byte for byte where every side is one
    # band, within 1e-15 of the scale where c r^2 + V has three (a band sum against a matrix product)
    spec = SPECS.get(kind) or HamiltonianSpec("potential", potential_coeffs=diagonal_table())
    for params in (ModelParams(0.1, cutoff=cutoff), ModelParams(0.7, hbar=1.3, mass=0.8, cutoff=cutoff)):
        h = hamiltonian(build_fock(params), spec)
        # b^2 and bdag^2 vanish at N = 2, so every table is diagonal there
        banded = kind in ("x1-squared-table", "complex-table") and cutoff > 2
        assert len(h.terms) == (6 if banded else 4)
        for psi in _apply_states(np.random.default_rng(cutoff), cutoff):
            got, want = h.apply(psi).op, dense_apply(h, psi)
            if banded:
                assert np.max(np.abs(got - want)) <= 1e-15 * apply_scale(h, psi)
            else:
                assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
    with pytest.raises(UsageError, match="cutoff mismatch"):
        h.apply(QuantumState(np.eye(cutoff + 1)))


def _every_operator(ctx):
    """Each superoperator the package builds, by name."""
    (x1, x2), (p1, p2) = position_ops(ctx), momentum_ops(ctx)
    ops = {"X1": x1, "X2": x2, "P1": p1, "P2": p2, "Lz": angular_momentum(ctx)}
    ops.update(zip(("A1", "A1dag", "A2", "A2dag"), ladder_ops(ctx)))
    for kind in [*SPECS, "diagonal-table"]:
        ops[kind] = hamiltonian(ctx, SPECS.get(kind) or HamiltonianSpec("potential", potential_coeffs=diagonal_table()))
    return ops


@pytest.mark.parametrize("cutoff", [2, 3, 8, 32, 160])
def test_every_operator_applies_as_its_dense_terms(cutoff):
    ctx = build_fock(ModelParams(0.7, hbar=1.3, mass=0.8, cutoff=cutoff))
    rng = np.random.default_rng(cutoff)
    states = (full_state(rng, cutoff), _apply_states(rng, cutoff)[1])
    for name, op in _every_operator(ctx).items():
        # one band per side, None for the identity: no side holds an N x N matrix
        assert all(side is None or side[1].shape == (cutoff - abs(side[0]),) for t in op.terms for side in t), name
        for psi in states:
            err = np.max(np.abs(op.apply(psi).op - dense_apply(op, psi)))
            assert err <= 1e-15 * apply_scale(op, psi), name


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


@pytest.mark.parametrize("theta", [1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("cutoff", [16, 30])
def test_small_theta_spectrum_stays_ascending(theta, cutoff):
    # the physical splittings shrink relative to the scale as theta^2, so a run
    # tolerance set by the boundary states (once 1e-8 of it) merged distinct
    # levels and put them in label order: -9.9e-4 at theta = 1e-3, N = 30
    ctx = build_fock(ModelParams(theta=theta, cutoff=cutoff))
    res = solve_spectrum(hamiltonian(ctx, OSC), 44)
    assert np.all(np.diff(res.eigenvalues) >= 0.0)


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
        solve_spectrum(SuperOperator(4, [(None, None)]), 1)


def test_spectrum_levels_builds_only_what_is_read(monkeypatch):
    # three levels of the N = 30 oscillator build at most 3 states plus the third level's run
    h = hamiltonian(build_fock(ModelParams(theta=0.1, cutoff=30)), OSC)
    vals = np.sort(np.concatenate([w for _, _, w, _ in dynamics._eig_cached(h)[-1]]))
    ctol = 1e-13 * max(1.0, float(np.max(np.abs(vals))))
    lo = hi = 2
    while lo > 0 and vals[lo] - vals[lo - 1] < ctol:
        lo -= 1
    while hi + 1 < len(vals) and vals[hi + 1] - vals[hi] < ctol:
        hi += 1
    built = []
    phase_fixed = dynamics._phase_fixed
    monkeypatch.setattr(dynamics, "_phase_fixed", lambda v: built.append(1) or phase_fixed(v))
    stream = spectrum_levels(h)
    first = [next(stream) for _ in range(3)]
    assert 3 <= len(built) <= 3 + (hi - lo + 1)

    res = solve_spectrum(h, 3)  # the same levels, field by field
    assert [float(e) for e, _, _, _ in first] == res.eigenvalues.tolist()
    assert [lz for _, _, lz, _ in first] == res.lz_expectations.tolist()
    assert [w for _, _, _, w in first] == res.boundary_weights.tolist()
    for (_, state, _, _), other in zip(first, res.eigenstates):
        assert np.array_equal(state.op, other.op)


def test_spectrum_levels_refuses_a_non_hamiltonian_on_first_next():
    stream = spectrum_levels(SuperOperator(4, [(None, None)]))
    with pytest.raises(UsageError):
        next(stream)


# ---------------------------------------------------------------- class blocks vs dense oracle

def dense_oracle(h, count):
    """(energy, label, vec) of the lowest levels straight from eigh(h.matrix), and max |E|.

    Put in solve_spectrum's canonical form: each run of eigenvalues closer than
    1e-13 of the scale is rotated to diagonalize the exact label -hbar (m - l)
    (ascending), and each vector's largest component is made real positive.
    """
    n = h.cutoff
    evals, evecs = np.linalg.eigh(np.asarray(h.matrix))
    levels = np.arange(n)
    label = (h.ctx.params.hbar * (levels[None, :] - levels[:, None])).reshape(-1)
    scale = max(1.0, float(np.max(np.abs(evals))))
    ctol = 1e-13 * scale
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


def assert_runs_match_dense_oracle(h, levels):
    """solve_spectrum against dense_oracle run by run, over the runs covering `levels` levels.

    Inside a run (levels closer than 1e-13 of the scale) two things are
    conventions, not results: which value goes with which state
    (solve_spectrum keeps each sector state's own, the oracle assigns them by
    position) and the basis when one sector holds two states of the run.  So
    each run compares what no rotation inside it changes: the sorted values
    (1e-12 of the scale), the ascending labels and the run's projector (1e-10).
    Where a run lies close to its neighbours the oracle's own eigenvectors are
    only good to about eps * scale / gap (Davis-Kahan), so 100 times that is
    added to the state bound, and to the label bound times the largest |label|.
    """
    n = h.cutoff
    evals = np.linalg.eigh(np.asarray(h.matrix))[0]
    scale = max(1.0, float(np.max(np.abs(evals))))
    runs = []
    i = 0
    while i < min(levels, n * n):
        j = i + 1
        while j < n * n and evals[j] - evals[j - 1] < 1e-13 * scale:
            j += 1
        runs.append((i, j))
        i = j
    res = solve_spectrum(h, i)
    want, _ = dense_oracle(h, i)
    label_max = h.ctx.params.hbar * (n - 1)
    for i, j in runs:
        gap = min(evals[i] - evals[i - 1] if i else np.inf, evals[j] - evals[j - 1] if j < n * n else np.inf)
        slack = 100 * np.finfo(float).eps * scale / gap
        values = np.sort(res.eigenvalues[i:j]) - [e for e, _, _ in want[i:j]]
        assert np.max(np.abs(values)) < 1e-12 * scale
        labels = res.lz_expectations[i:j] - [lz for _, lz, _ in want[i:j]]
        assert np.max(np.abs(labels)) < 1e-10 + slack * label_max
        ours = np.array([vec(s.op) for s in res.eigenstates[i:j]])
        theirs = np.array([v for _, _, v in want[i:j]])
        assert np.max(np.abs(ours.T @ ours.conj() - theirs.T @ theirs.conj())) < 1e-10 + slack


def diagonal_table():
    # 0.3 + 0.2 bdag b + 0.05 bdag^2 b^2: diagonal in the Fock basis, so rotation invariant
    return np.diag([0.3, 0.2, 0.05]).astype(complex)


def refuse_matrix(self):
    raise AssertionError("solve_spectrum and evolve must not materialize the N^2 x N^2 matrix")


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


def _count_eigh(monkeypatch) -> list:
    """Record (shape, dtype kind) of every np.linalg.eigh input from now on."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append((np.shape(a), np.asarray(a).dtype.kind))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


@pytest.mark.parametrize("table,blocks", [
    (x1_squared_table(0.1), [((72, 72), "f")] * 2),
    (linear_x1_table(0.5), [((144, 144), "f")]),
    (complex_table(), [((72, 72), "c")] * 2),
    (near_free_table(), [((72, 72), "f")] * 2),
], ids=["x1-squared-table", "linear-x1-table", "complex-table", "near-free-table"])
def test_off_diagonal_tables_take_the_class_route(ctx12, table, blocks, monkeypatch):
    # one decomposition into the g classes k mod g, shared with evolve, no N^2 x N^2 matrix
    h = hamiltonian(ctx12, HamiltonianSpec("potential", potential_coeffs=table))
    calls = _count_eigh(monkeypatch)
    monkeypatch.setattr(SuperOperator, "matrix", property(refuse_matrix))
    res = solve_spectrum(h, 40)
    evolve(res.eigenstates[0], h, 0.5)
    # the other eighs rotate the label inside a degenerate run of a few levels
    assert [c for c in calls if c[0][0] > 40] == blocks
    monkeypatch.undo()
    assert_matches_dense_oracle(h, res, 40)


def test_one_column_runs_read_the_label_without_an_eigh(ctx12, monkeypatch):
    # every run of the x1^2 table holds one level; the eigh of its 1 x 1 label block, which
    # the read skips, returns the block's real part and a unit rotation
    h = hamiltonian(ctx12, HamiltonianSpec("potential", potential_coeffs=x1_squared_table(0.1)))
    *_, blocks = dynamics._eig_cached(h)
    calls = _count_eigh(monkeypatch)
    levels = list(spectrum_levels(h))
    assert calls == []
    monkeypatch.undo()
    label = (h.ctx.params.hbar * -np.subtract.outer(np.arange(12), np.arange(12))).reshape(-1)
    columns = sorted(((w[q], idx, v[:, [q]]) for idx, _, w, v in blocks for q in range(len(w))),
                     key=lambda c: c[0])
    for (e, state, lz, _), (w_q, idx, u) in zip(levels, columns, strict=True):
        label_block = u.conj().T @ (label[idx, None] * u)
        lzs, rot = np.linalg.eigh(0.5 * (label_block + label_block.conj().T))
        op = np.zeros(144, dtype=complex)
        op[idx] = dynamics._phase_fixed((u @ rot)[:, 0])
        assert e == w_q and lz == lzs[0]
        assert np.array_equal(state.op, op.reshape(12, 12))


@pytest.mark.parametrize("v", [
    np.diag(0.1j * np.arange(12)),  # g = 0: sector blocks
    np.eye(12, k=2),  # b^2 without its adjoint: g = 2, class blocks
    np.pad([[0.0, 0.3j], [0.0, 0.0]], (0, 10)),  # v_01 = 0.3i with no v_10: g = 1, one complex block
], ids=["sector", "class", "one-class"])
def test_non_hermitian_hamiltonian_is_refused(ctx12, v):
    h = Hamiltonian(ctx12, v)
    with pytest.raises(ConsistencyError, match="Hermiticity defect"):
        solve_spectrum(h, 1)
    with pytest.raises(ConsistencyError, match="Hermiticity defect"):
        evolve(QuantumState(np.eye(12)), h, 1.0)


def test_a_term_joining_two_classes_is_refused(ctx12):
    # the hopping potential b + b^dag mixes neighbouring sectors, but v_matrix names the
    # free particle's classes, one per sector
    h = Hamiltonian(ctx12, np.eye(12, k=1) + np.eye(12, k=-1))
    h.v_matrix = np.zeros((12, 12))
    with pytest.raises(ConsistencyError, match="two classes"):
        solve_spectrum(h, 1)


def gathered_class_blocks(h):
    """The class decomposition with each block gathered from all unit pairs of the dense terms.

    The assembly that the scatter over the bands' nonzeros replaced, kept as its
    oracle: (blocks as passed to eigh, (idx, w, v, per-class views)).  Every
    product is complex if any side is, as when the terms were dense complex matrices.
    """
    n = h.cutoff
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    g = math.gcd(*np.abs(offsets[h.v_matrix != 0]).tolist())
    m, l = np.divmod(np.arange(n * n), n)
    terms = dense_sides(h)
    if any(left.imag.any() or right.imag.any() for left, right in terms):
        terms = [(left.astype(complex), right.astype(complex)) for left, right in terms]
    if g == 0:
        idx = ((m + l) % n * n + l).reshape(n, n)
        where = {k: (k % n, slice(max(-k, 0), n - max(k, 0))) for k in range(1 - n, n)}
    else:
        k = offsets.reshape(-1) % g
        size = np.bincount(k)
        idx = np.full((g, size.max()), n * n)
        where = {c: (c, slice(0, size[c])) for c in range(g)}
        for c, (slot, pos) in where.items():
            idx[slot, pos] = np.flatnonzero(k == c)
    key = (lambda i: (slice(i[0], i[-1] + 1),) * 2) if g == 0 else (lambda i: np.ix_(i, i))
    w, v = np.zeros(idx.shape), np.zeros(idx.shape + idx.shape[-1:], dtype=terms[0][0].dtype)
    mats, blocks = [], []
    for c, (slot, pos) in where.items():
        i = idx[slot, pos]
        mi, li = key(m[i]), key(l[i])
        block = sum(left[mi] * right[li].T for left, right in terms)
        if not block.imag.any():
            block = block.real
        mats.append(block)
        w[slot, pos], v[slot, pos, pos] = np.linalg.eigh(block)
        label = h.ctx.params.hbar * -int(c) if g == 0 else None
        blocks.append((i, label, w[slot, pos], v[slot, pos, pos]))
    return mats, (idx, w, v, blocks)


def _bits(a):
    return np.asarray(a).dtype.str, np.shape(a), np.asarray(a).tobytes()


@pytest.mark.parametrize("spec,cutoff", [
    # at N = 2 and 3 the sectors +-(N - 1) hold one unit each, and every slot but 0 holds two sectors
    (FREE, 2), (FREE, 3), (OSC, 2), (OSC, 3),
    (FREE, 12), (FREE, 31), (OSC, 12), (OSC, 31),
    (HamiltonianSpec("potential", potential_coeffs=x1_squared_table(0.1)), 28),
    # 0.3i (b - b^dag): a linear term, g = 1, one complex block
    (HamiltonianSpec("potential", potential_coeffs=0.3j * np.array([[0, 1], [-1, 0]])), 12),
    (HamiltonianSpec("potential", potential_coeffs=complex_table()), 28),  # g = 2, two complex blocks
], ids=["free-2", "free-3", "oscillator-2", "oscillator-3", "free-12", "free-31", "oscillator-12",
        "oscillator-31", "x1-squared-table-28", "complex-linear-table", "complex-table-28"])
def test_scattered_blocks_equal_the_gather_bit_for_bit(spec, cutoff, monkeypatch):
    h = hamiltonian(build_fock(ModelParams(theta=0.1, cutoff=cutoff)), spec)
    mats, want = gathered_class_blocks(h)
    got_mats = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        got_mats.append(np.array(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    got = dynamics._eig_cached(h)
    assert [_bits(a) for a in got_mats] == [_bits(a) for a in mats]
    assert [_bits(a) for a in got[:3]] == [_bits(a) for a in want[:3]]
    for (i, label, w, v), (want_i, want_label, want_w, want_v) in zip(got[3], want[3], strict=True):
        assert label == want_label and repr(label) == repr(want_label)
        assert [_bits(a) for a in (i, w, v)] == [_bits(a) for a in (want_i, want_w, want_v)]


@pytest.mark.parametrize("theta", [1e-155, 1e-170])
def test_hamiltonian_refuses_a_theta_whose_kinetic_prefactor_overflows(theta):
    # hbar^2 / (2 m theta^2) is inf at 1e-155 and divides by an underflowed theta^2 at 1e-170
    ctx = build_fock(ModelParams(theta=theta, cutoff=4))
    with pytest.raises(ConfigurationError, match="not a finite float"):
        hamiltonian(ctx, FREE)


def test_hamiltonian_takes_only_a_potential_of_its_cutoff(ctx12):
    with pytest.raises(UsageError, match="12 x 12"):
        Hamiltonian(ctx12, np.zeros((11, 11)))
    with pytest.raises(UsageError, match="12 x 12"):
        Hamiltonian(ctx12, 0.0)


@pytest.mark.parametrize("kind", ["oscillator", "x1-squared-table"])
@given(
    st.floats(-6.0, 1.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.integers(min_value=2, max_value=16),
)
def test_spectrum_matches_dense_oracle_over_parameter_box(kind, log_theta, log_hbar, log_mass, log_omega, n):
    # criterion 9's box; the lowest 8 levels and the rest of their last run
    params = ModelParams(theta=10.0**log_theta, hbar=10.0**log_hbar, mass=10.0**log_mass,
                         omega=10.0**log_omega, cutoff=n)
    spec = (HamiltonianSpec("potential", potential_coeffs=x1_squared_table(params.theta))
            if kind == "x1-squared-table" else OSC)
    assert_runs_match_dense_oracle(hamiltonian(build_fock(params), spec), 8)


def test_sector_route_builds_no_dense_matrix_at_cutoff_160(monkeypatch):
    # criterion 2's solve; materializing H here would allocate ~10 GB
    monkeypatch.setattr(SuperOperator, "matrix", property(refuse_matrix))
    h = hamiltonian(build_fock(ModelParams(theta=0.1, cutoff=160)), OSC)
    res = solve_spectrum(h, 300)
    assert len(res.eigenstates) == 300
    assert np.all(np.diff(res.eigenvalues) >= 0.0)
    psi = res.eigenstates[0]
    assert abs(abs(hs_inner(psi, evolve(psi, h, 1.5))) - 1.0) < 1e-12


# ---------------------------------------------------------------- evolution

@pytest.mark.parametrize("kind,table,params", [
    ("free", None, ModelParams(theta=0.1, cutoff=10)),
    ("oscillator", None, ModelParams(theta=0.1, cutoff=10)),
    ("potential", diagonal_table(), ModelParams(theta=0.1, cutoff=10)),
    ("potential", x1_squared_table(0.1), ModelParams(theta=0.1, cutoff=10)),
    ("potential", linear_x1_table(0.5), ModelParams(theta=0.1, cutoff=10)),
    ("potential", complex_table(), ModelParams(theta=0.1, cutoff=10)),
    ("oscillator", None, ModelParams(theta=0.7, hbar=1.3, mass=0.8, omega=1.7, cutoff=10)),
    # odd N: the two classes k mod 2 hold 61 and 60 units, so the smaller one is padded
    ("potential", x1_squared_table(0.1), ModelParams(theta=0.1, cutoff=11)),
    ("potential", complex_table(), ModelParams(theta=0.1, cutoff=11)),
], ids=["free", "oscillator", "diagonal-table", "x1-squared-table", "linear-x1-table",
        "complex-table", "oscillator-hbar-1.3", "x1-squared-table-odd", "complex-table-odd"])
def test_evolve_matches_expm_oracle(kind, table, params, monkeypatch):
    h = hamiltonian(build_fock(params), HamiltonianSpec(kind, potential_coeffs=table))
    psi = full_state(np.random.default_rng(3), params.cutoff)
    t = 0.7
    with monkeypatch.context() as patch:
        patch.setattr(SuperOperator, "matrix", property(refuse_matrix))
        got = vec(evolve(psi, h, t).op)
    want = scipy.linalg.expm(-1j * np.asarray(h.matrix) * t / params.hbar) @ vec(psi.op)
    assert np.max(np.abs(got - want)) < 1e-11


def evolve_by_blocks(psi0, h, t):
    # the per-class loop the batched product replaced: each class block evolves on its own
    psi = vec(psi0.op)
    out = np.empty_like(psi)
    for idx, _, w, v in dynamics._eig_cached(h)[-1]:
        out[idx] = v @ (np.exp(-1j * w * t / h.ctx.params.hbar) * (v.conj().T @ psi[idx]))
    return out


@pytest.mark.parametrize("cutoff", [12, 31])
@pytest.mark.parametrize("spec", [OSC, HamiltonianSpec("potential", potential_coeffs=x1_squared_table(0.1))],
                         ids=["oscillator", "x1-squared-table"])
def test_batched_evolve_matches_the_class_loop(spec, cutoff):
    h = hamiltonian(build_fock(ModelParams(theta=0.1, cutoff=cutoff)), spec)
    psi = full_state(np.random.default_rng(6), cutoff)
    for t in (0.0, 0.7, 9.25):
        got = vec(evolve(psi, h, t).op)
        assert np.max(np.abs(got - evolve_by_blocks(psi, h, t))) < 1e-13 * psi.norm


@pytest.mark.parametrize("kind", ["free", "oscillator"])
def test_sector_stack_holds_n_cubed_real_entries(kind):
    # slot c holds sectors c and c - N, N units in all, so nothing is padded
    n = 31
    h = hamiltonian(build_fock(ModelParams(theta=0.1, cutoff=n)), HamiltonianSpec(kind))
    idx, w, v, blocks = dynamics._eig_cached(h)
    assert v.shape == (n, n, n) and v.dtype == float and v.nbytes <= 8 * n**3
    assert np.array_equal(np.sort(idx, axis=None), np.arange(n * n))
    assert len(blocks) == 2 * n - 1
    assert all(np.shares_memory(bv, v) and np.shares_memory(bw, w) for _, _, bw, bv in blocks)


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


# the oscillator at N=12 has 2N - 1 = 23 square sector blocks, of sizes 12 - |k|
BLOCKS_12 = sorted(((12 - abs(k),) * 2, "f") for k in range(-11, 12))


def test_spectrum_and_evolve_share_one_eigendecomposition(ctx12, monkeypatch):
    # the 23 sector blocks are solved once, for both consumers
    calls = _count_eigh(monkeypatch)
    h = hamiltonian(ctx12, OSC)
    res = solve_spectrum(h, 1)
    solve_spectrum(h, 1)
    out = evolve(res.eigenstates[0], h, 1.5)
    assert sorted(calls) == BLOCKS_12  # 23 real solves
    assert abs(abs(hs_inner(res.eigenstates[0], out)) - 1.0) < 1e-12


def test_racing_first_evolves_fill_the_cache_once(monkeypatch):
    calls = _count_eigh(monkeypatch)
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
    assert sorted(calls) == BLOCKS_12  # one set of sector blocks, not one per thread
    assert all(np.array_equal(o, out[0]) for o in out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evolve_requires_hamiltonian(ctx12):
    psi = QuantumState(np.eye(12, dtype=complex))
    s = SuperOperator(12, [(None, None)])
    with pytest.raises(UsageError):
        evolve(psi, s, 1.0)
    with pytest.raises(UsageError, match="cutoff"):
        evolve(QuantumState(np.eye(13, dtype=complex)), hamiltonian(ctx12, OSC), 1.0)
    with pytest.raises(NumericalError, match="phase"):  # w t overflows: refused, not NaN
        evolve(psi, hamiltonian(ctx12, OSC), 1e308)
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
    # 0.1^2 rounds up, so |kappa|^2 N is just past 4 at N = 400: refused, and the message says by how much
    with pytest.raises(TruncationError, match=r"\|kappa\|\^2 N = 4\.000000000000001 > 4"):
        plane_wave(build_fock(ModelParams(theta=0.1, cutoff=400)), 0.1)


def series_plane_wave(ctx, kappa):
    # the truncated series e^{i kappa b} e^{i conj(kappa) b^dag}, summed as dense matrix powers
    def exp_series(mat):
        out = term = np.eye(ctx.cutoff, dtype=complex)
        for j in range(1, ctx.cutoff):
            term = term @ mat / j
            out = out + term
        return out
    return exp_series(1j * kappa * ctx.b) @ exp_series(1j * np.conj(kappa) * ctx.bdag)


@pytest.mark.parametrize("cutoff", [2, 8, 40, 160])
def test_plane_wave_closed_form_matches_the_series(cutoff):
    ctx = build_fock(ModelParams(theta=0.1, cutoff=cutoff))
    edge = 2.0 / math.sqrt(cutoff) * (1.0 - 1e-15)  # |kappa|^2 N at the bound of 4
    for kappa in (0.0, 0.5 * edge, edge, edge * np.exp(0.7j), -1j * edge):
        psi, _ = plane_wave(ctx, kappa)
        want = series_plane_wave(ctx, complex(kappa))
        assert np.linalg.norm(psi.op - want) <= 1e-14 * np.linalg.norm(want)


def test_boundary_defect_depth_contract():
    assert boundary_defect_depth(0.2, 40) == 14
    # wider waves need deeper bands
    assert boundary_defect_depth(0.3, 40) > boundary_defect_depth(0.1, 40)
    assert boundary_defect_depth(2.0, 6) == 6  # never exceeds the cutoff


def test_interior_residual_depth_validation(ctx12):
    h = hamiltonian(ctx12, FREE)
    psi = QuantumState(np.eye(12, dtype=complex))
    with pytest.raises(UsageError):
        interior_residual(h, psi, 0.0, -1)
    with pytest.raises(UsageError):
        interior_residual(h, psi, 0.0, 13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_interior_residual_refuses_the_zero_state(ctx12):
    # a residual relative to a zero norm is undefined, as support_weight's is: refused, not NaN
    with pytest.raises(UsageError, match="zero state"):
        interior_residual(hamiltonian(ctx12, FREE), QuantumState(np.zeros((12, 12))), 0.0, 0)


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


def product_continuity_residual(psi, h):
    # the currents as written, j = c (psi^dag [x, psi] - [x, psi^dag] psi), from dense products only
    p = h.ctx.params
    x1, x2, a = h.ctx.x1, h.ctx.x2, psi.op
    adag = a.conj().T
    psi_dot = -1j / p.hbar * h.apply(psi).op
    rho_dot = psi_dot.conj().T @ a + adag @ psi_dot
    c = p.hbar / (2.0 * p.mass * 1j * p.theta**2)
    j1 = c * (adag @ (x2 @ a - a @ x2) - (x2 @ adag - adag @ x2) @ a)
    j2 = c * (adag @ (x1 @ a - a @ x1) - (x1 @ adag - adag @ x1) @ a)
    return float(np.linalg.norm(rho_dot - (x2 @ j1 - j1 @ x2) - (x1 @ j2 - j2 @ x1)))


@pytest.mark.parametrize("kind", list(SPECS))
def test_continuity_matches_the_dense_product_formula(kind, monkeypatch):
    ctx = build_fock(ModelParams(theta=0.3, hbar=1.3, mass=0.8, cutoff=20))
    h = hamiltonian(ctx, SPECS[kind])
    rng = np.random.default_rng(5)
    states = (full_state(rng, 20), interior_state(rng, 20, 4))
    for psi in states:  # both read roundoff on a true Hamiltonian
        assert continuity_residual(psi, h) < 1e-10 and product_continuity_residual(psi, h) < 1e-10
    # a flow that breaks the identity, by 10% of H: both formulas read the same O(1) defect
    broken = lambda h, psi: QuantumState(1.1 * SuperOperator.apply(h, psi).op)  # noqa: E731
    monkeypatch.setattr(Hamiltonian, "apply", broken)
    for psi in states:
        want = product_continuity_residual(psi, h)
        assert want > 1e-3
        assert continuity_residual(psi, h) == pytest.approx(want, rel=1e-12)


def test_continuity_commutators_by_shifts_match_the_products():
    ctx = build_fock(ModelParams(theta=0.3, cutoff=17))
    h = hamiltonian(ctx, FREE)
    a = full_state(np.random.default_rng(6), 17).op
    for got, x in zip(dynamics._x_commutators(h, a), (ctx.x1, ctx.x2)):
        assert np.max(np.abs(got - (x @ a - a @ x))) < 1e-15


def test_continuity_holds_at_cutoff_160():
    ctx = build_fock(ModelParams(theta=0.1, cutoff=160))
    rng = np.random.default_rng(9)
    for spec in (FREE, OSC):
        h = hamiltonian(ctx, spec)
        for psi in (full_state(rng, 160), interior_state(rng, 160, 6)):
            assert continuity_residual(psi, h) < 1e-8


def test_continuity_excited_state(ctx12):
    big = build_fock(ModelParams(theta=0.1, cutoff=30))
    h = hamiltonian(big, OSC)
    psi = excited_state(big, 1, 0)
    assert continuity_residual(psi, h) < 1e-10
