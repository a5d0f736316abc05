"""Hamiltonians on the state space, spectra, time evolution, plane waves, continuity.

The kinetic superoperator is the symmetric composition

    (P1^2 + P2^2)/2m = c ([x1,[x1, .]] + [x2,[x2, .]]),    c = hbar^2 / (2 m theta^2),

not the algebraically equivalent (hbar^2/m theta)[b^dag,[b, .]]: under
truncation the two differ by a boundary superoperator, and only the symmetric
form keeps probability conservation and the continuity identity exact for
every state, boundary-supported ones included.  With r^2 = x1^2 + x2^2 and
x1 psi x1 + x2 psi x2 = theta (b psi b^dag + b^dag psi b), an identity that
holds for the truncated b too, that same composition is four banded terms

    H psi = (c r^2 + V) psi + psi c r^2 - 2c theta (b psi b^dag + b^dag psi b),

so a Hamiltonian is fixed by its potential V alone.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    ConsistencyError,
    DegenerateOscillatorError,
    FockContext,
    NumericalError,
    QuantumState,
    SuperOperator,
    TruncationError,
    UsageError,
    ValidationError,
    _readonly,
    _require_hermitian,
    support_weight,
    unvec,
    vec,
)

__all__ = [
    "HamiltonianSpec",
    "Hamiltonian",
    "hamiltonian",
    "SpectrumResult",
    "spectrum_levels",
    "solve_spectrum",
    "evolve",
    "plane_wave",
    "boundary_defect_depth",
    "interior_residual",
    "continuity_residual",
]

_KINDS = ("free", "oscillator", "potential")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Which Hamiltonian to build: free motion, the oscillator, or P^2/2m + V.

    potential_coeffs is a square table v[m, n] defining the normal-ordered
    potential V = sum_mn v_mn (b^dag)^m b^n; Hermiticity of V requires
    v_mn = conj(v_nm), the matrix analog of a real potential.
    """

    kind: str
    potential_coeffs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "potential":
            if self.potential_coeffs is None:
                raise ValidationError("kind='potential' needs a potential_coeffs table")
            table = np.asarray(self.potential_coeffs, dtype=complex)
            if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
                raise ValidationError(f"potential_coeffs must be a nonempty square table, got {table.shape}")
            _require_hermitian(table, ValidationError, "potential table (v_mn = conj(v_nm))")
            object.__setattr__(self, "potential_coeffs", table)
        elif self.potential_coeffs is not None:
            raise ValidationError(f"kind={self.kind!r} takes no potential table")


class Hamiltonian(SuperOperator):
    """H = (P1^2 + P2^2)/2m + V as the module docstring's four terms, from ctx and the N x N V.

    v_matrix also fixes the classes of _class_blocks; _eig holds _eig_cached's decomposition.
    """

    __slots__ = ("ctx", "v_matrix", "_eig", "_lock")

    def __init__(self, ctx: FockContext, v_matrix: np.ndarray):
        n = ctx.cutoff
        v = _readonly(v_matrix)
        if v.shape != (n, n):
            raise UsageError(f"v_matrix must be {n} x {n}, got shape {v.shape}")
        p = ctx.params
        den = 2.0 * p.mass * p.theta**2
        c = p.hbar**2 / den if den else math.inf
        if not math.isfinite(c):
            raise ConfigurationError(f"theta = {p.theta!r} is too small: the kinetic prefactor "
                                     "hbar^2/(2 m theta^2) is not a finite float")
        eye = np.eye(n, dtype=complex)
        c_r_sq = c * ctx.r_sq
        hop = -2.0 * c * p.theta
        super().__init__([(c_r_sq + v, eye), (eye, c_r_sq), (hop * ctx.b, ctx.bdag), (hop * ctx.bdag, ctx.b)])
        self.ctx = ctx
        self.v_matrix = v
        self._eig = None
        self._lock = threading.Lock()


def _potential_matrix(ctx: FockContext, spec: HamiltonianSpec) -> np.ndarray:
    n = ctx.cutoff
    if spec.kind == "free":
        return np.zeros((n, n), dtype=complex)
    if spec.kind == "oscillator":
        p = ctx.params
        return 0.5 * p.mass * p.omega**2 * ctx.r_sq
    table = spec.potential_coeffs
    out = np.zeros((n, n), dtype=complex)
    deg = table.shape[0]
    bd_pow = np.eye(n, dtype=complex)
    for m in range(deg):
        b_pow = np.eye(n, dtype=complex)
        for k in range(deg):
            if table[m, k] != 0.0:
                out += table[m, k] * (bd_pow @ b_pow)
            b_pow = b_pow @ ctx.b
        bd_pow = bd_pow @ ctx.bdag
    return out


def hamiltonian(ctx: FockContext, spec: HamiltonianSpec) -> Hamiltonian:
    """H = (P1^2 + P2^2)/2m + V for the spec's potential V; Hermitian by construction.

    Raises DegenerateOscillatorError for the oscillator at omega = 0, which is
    the free particle, as lambdas does.
    """
    if spec.kind == "oscillator" and ctx.params.omega <= 0.0:
        raise DegenerateOscillatorError("the oscillator needs omega > 0; omega = 0 is the free particle")
    return Hamiltonian(ctx, _potential_matrix(ctx, spec))


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenpairs of a Hamiltonian superoperator.

    eigenvalues ascending (by label inside a degenerate run, levels closer than
    1e-13 of the spectral scale; see spectrum_levels);
    eigenstates orthonormal under the Hilbert-Schmidt inner product.
    lz_expectations holds, per state, the expectation of the exact
    angular-momentum label, which multiplies the matrix unit |m><l| by
    -hbar (m - l).  When v_matrix is diagonal every state lies in one sector
    k = m - l, so the entry is exactly -hbar k; otherwise the label is
    diagonalized inside each degenerate run.  The label is used rather than
    the truncated angular_momentum operator, whose cut top entry of r^2 shifts
    boundary-supported states by several hbar; the label commutes exactly with
    every rotation-invariant truncated Hamiltonian.
    boundary_weights is support_weight(state, N-4): truncation-boundary
    artifacts show up as weight near 1 there, physical levels near 0.  The
    truncated spectrum contains such spurious boundary states interleaved with
    the physical ones, so consumers filter on this column.
    """

    eigenvalues: np.ndarray
    eigenstates: list
    lz_expectations: np.ndarray
    boundary_weights: np.ndarray


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    # the largest component (first of equals) made real and positive
    pivot = np.argmax(np.abs(v))
    return v * (v[pivot] / abs(v[pivot])).conjugate()


def _class_blocks(h: Hamiltonian) -> tuple:
    """H split into the classes of matrix units it never mixes, each block diagonalized into one stack.

    The kinetic terms keep k = m - l of the unit |m><l| and the potential term
    (b^dag)^p b^q shifts k by p - q, so H keeps k modulo g, the gcd of |m - n|
    over the nonzero off-diagonal v_matrix[m, n].  With g = 0 (free, oscillator,
    diagonal tables) each sector k is a class labelled exactly -hbar k, and slot
    c holds sectors c and c - N, the N units |(l + c) mod N><l| in the order of
    l; else the g classes k mod g have label None, one per slot, padded to the
    largest.  A class's block, block[i, j] = sum_t L_t[m_i, m_j] R_t[l_j, l_i]
    over its units in vec order, comes from H's terms with no N^2 x N^2 matrix
    (from their real parts if none has an imaginary part: (a + 0i)(b + 0i) = ab)
    and np.linalg.eigh solves it into its slot, in real arithmetic if its
    imaginary part is exactly zero.  A non-Hermitian block raises ConsistencyError.
    """
    n = h.cutoff
    rows, cols = np.nonzero(h.v_matrix)
    g = math.gcd(*np.abs(rows - cols).tolist())
    m, l = np.divmod(np.arange(n * n), n)
    terms = h.terms
    if not any(left.imag.any() or right.imag.any() for left, right in terms):
        terms = [(left.real, right.real) for left, right in terms]
    if g == 0:  # sector k sits in slot k mod N at its units' l, which run over a range
        idx = ((m + l) % n * n + l).reshape(n, n)
        where = {k: (k % n, slice(max(-k, 0), n - max(k, 0))) for k in range(1 - n, n)}
    else:  # class c fills slot c in vec order; the rest of the slot is padding at index N^2
        k = (m - l) % g
        size = np.bincount(k)
        idx = np.full((g, size.max()), n * n)
        where = {c: (c, slice(0, size[c])) for c in range(g)}
        for c, (slot, pos) in where.items():
            idx[slot, pos] = np.flatnonzero(k == c)
    # a sector's m and l run over contiguous ranges, so its blocks are basic slices
    key = (lambda i: (slice(i[0], i[-1] + 1),) * 2) if g == 0 else (lambda i: np.ix_(i, i))
    w, v = np.zeros(idx.shape), np.zeros(idx.shape + idx.shape[-1:], dtype=terms[0][0].dtype)
    blocks = []
    for c, (slot, pos) in where.items():
        i = idx[slot, pos]
        mi, li = key(m[i]), key(l[i])
        block = sum(left[mi] * right[li].T for left, right in terms)
        _require_hermitian(block, ConsistencyError, "Hamiltonian block")
        if not block.imag.any():
            block = block.real
        w[slot, pos], v[slot, pos, pos] = np.linalg.eigh(block)
        label = h.ctx.params.hbar * -int(c) if g == 0 else None
        blocks.append((i, label, w[slot, pos], v[slot, pos, pos]))
    return idx, w, v, blocks


def _eig_cached(h: Hamiltonian) -> tuple:
    """The one eigendecomposition of H, computed on first use; spectrum_levels and evolve share it.

    (idx, w, v, blocks): evolve's slots x L vec indices, eigenvalues and L x L
    eigenvectors as columns (padding has index N^2, w = 0 and a zero row and
    column), and per class spectrum_levels' views (vec indices, label, w, v).
    """
    with h._lock:
        if h._eig is None:
            h._eig = _class_blocks(h)
        return h._eig


def spectrum_levels(h: Hamiltonian):
    """H's eigenpairs one level at a time, lowest first, as (eigenvalue, state, lz, boundary_weight).

    Read off the class blocks of _eig_cached, which evolve shares.  Free,
    oscillator, and potential tables whose v_matrix is diagonal give 2N-1
    sector blocks of size N - |k|; any other table gives g classes of about
    N^2/g units (g = 1 is one block over all N^2 units).

    Ordering: energy ascending; eigenvalues closer than 1e-13 of the spectral
    scale form one degenerate run, ordered by ascending lz (the exact label,
    see SpectrumResult).  Exact degeneracies, such as the free particle's k, -k
    pairs, come out of separate blocks within about 1e-15 of the scale, so the
    runs hold them and little else.  Physical splittings relative to the scale
    fall as theta^2: the oscillator's lowest 44 levels stay ascending down to
    theta = 1e-5 at N = 16 and 30, but at theta = 1e-6 distinct levels merge
    into one run and come out in label order (a step of -8.8e-6 at N = 30).
    Phase: the largest component of each eigenstate, first of equals in vec
    order, is real and positive.  boundary_weight is support_weight(state, N-4).

    Each run is ordered as a whole before its first level is yielded, and no
    run past the last level read is ordered or built, so a consumer that
    drops each state holds one at a time.  A non-Hamiltonian raises
    UsageError on the first next().
    """
    if not isinstance(h, Hamiltonian):
        raise UsageError("spectrum_levels needs a Hamiltonian built by hamiltonian()")
    n = h.cutoff
    *_, blocks = _eig_cached(h)
    vals = np.concatenate([w for _, _, w, _ in blocks])
    where = [(b, q) for b, (_, _, w, _) in enumerate(blocks) for q in range(len(w))]
    order = np.argsort(vals, kind="stable")
    ordered = vals[order]
    ctol = 1e-13 * max(1.0, float(np.max(np.abs(vals))))
    levels = np.arange(n)  # the exact label -hbar (m - l) of each unit |m><l|, vec ordering:
    label = (h.ctx.params.hbar * (levels[None, :] - levels[:, None])).reshape(-1)
    guard = max(n - 4, 0)

    i = 0
    while i < len(order):
        j = i + 1  # the run [i, j): neighbours closer than ctol
        while j < len(order) and ordered[j] - ordered[j - 1] < ctol:
            j += 1
        run = [where[q] for q in order[i:j]]
        found = []  # (eigenvalue, label, vec indices, eigenvector)
        for b in dict.fromkeys(b for b, _ in run):
            idx, lz, w, v = blocks[b]
            cols = [q for c, q in run if c == b]
            vecs = v[:, cols]
            if lz is None:  # diagonalize the label over the block's columns in the run
                label_block = vecs.conj().T @ (label[idx, None] * vecs)
                lzs, rot = np.linalg.eigh(0.5 * (label_block + label_block.conj().T))
                vecs = vecs @ rot
            else:  # every state of a sector carries its exact label
                lzs = [lz] * len(cols)
            found += [(w[q], float(lz_q), idx, u) for q, lz_q, u in zip(cols, lzs, vecs.T)]
        for e, lz, idx, u in sorted(found, key=lambda r: r[1]):
            op = np.zeros(n * n, dtype=complex)
            op[idx] = _phase_fixed(u)
            state = QuantumState(unvec(op, n))
            yield e, state, lz, support_weight(state, guard)
        i = j


def solve_spectrum(h: Hamiltonian, count: int) -> SpectrumResult:
    """The first `count` levels of spectrum_levels(h), with its ordering, labels and phases."""
    if not isinstance(h, Hamiltonian):
        raise UsageError("solve_spectrum needs a Hamiltonian built by hamiltonian()")
    n = h.cutoff
    if not (1 <= count <= n * n):
        raise UsageError(f"count must be in 1 .. {n * n}, got {count}")
    vals, states, lzs, weights = zip(*itertools.islice(spectrum_levels(h), count))
    return SpectrumResult(np.array(vals), list(states), np.array(lzs), np.array(weights))


def _stack_product(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v @ x slot by slot in one matmul; a real v acts on x's (re, im) pairs and is never cast."""
    if v.dtype.kind == "c":
        return np.matmul(v, x[..., None])[..., 0]
    return np.matmul(v, x.view(float).reshape(*x.shape, 2)).view(complex)[..., 0]


def evolve(psi0: QuantumState, h: Hamiltonian, t: float) -> QuantumState:
    """exp(-i H t / hbar) psi0: one gather, V^dag, phases, V and one scatter over the stack of _eig_cached.

    No loop over classes and no N^2 x N^2 matrix: O(N^3) in all when v_matrix
    is diagonal (N slots of N units).  The stack is shared with spectrum_levels
    and never written, so repeated and concurrent calls are cheap and safe.
    Unitarity is exact up to roundoff for any real t.  Raises NumericalError
    when a phase w t / hbar is not finite (a t so large that it overflows).
    """
    if not isinstance(h, Hamiltonian):
        raise UsageError("evolve needs a Hamiltonian built by hamiltonian()")
    if psi0.cutoff != h.cutoff:
        raise UsageError(f"cutoff mismatch: Hamiltonian {h.cutoff}, state {psi0.cutoff}")
    idx, w, v, _ = _eig_cached(h)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = -1j * w * t / h.ctx.params.hbar
    if not np.isfinite(phase).all():
        raise NumericalError(f"the phase w t / hbar overflows double precision at t = {t}")
    psi = np.append(vec(psi0.op), 0.0)[idx]  # a padded entry reads the zero at vec index N^2
    coeffs = np.exp(phase) * _stack_product(v.mT, psi.conj()).conj()  # V^dag psi, V never copied
    out = np.empty(h.cutoff**2 + 1, dtype=complex)
    out[idx] = _stack_product(v, coeffs)
    return QuantumState(unvec(out[:-1], h.cutoff))


def boundary_defect_depth(kappa: complex, cutoff: int, tol: float = 1e-9) -> int:
    """A priori depth of the truncation defect band of a plane wave.

    The truncated wave's Hamiltonian residual lives on the top d Fock levels
    where d is the first integer with (|kappa| sqrt(N))^d / d! < tol; entries
    deeper inside are exact to that tolerance.
    """
    x = abs(kappa) * math.sqrt(cutoff)
    term = 1.0
    for d in range(1, cutoff):
        term *= x / d
        if term < tol:
            return d
    return cutoff


def plane_wave(ctx: FockContext, kappa: complex) -> tuple[QuantumState, float]:
    """The free-particle wave e^{i kappa b} e^{i conj(kappa) b^dag} and its energy.

    kappa is the dimensionless wave parameter (theta times the wavevector).
    Both exponentials terminate exactly at the cutoff (b is nilpotent), so the
    matrix is the exact truncation of the infinite-dimensional wave.  The state
    is returned unnormalized; its infinite-dimensional norm diverges.

    Raises TruncationError unless |kappa|^2 N <= 4, which keeps the truncation
    defect confined to a shallow boundary band (see boundary_defect_depth).
    """
    kappa = complex(kappa)
    n = ctx.cutoff
    if not math.isfinite(abs(kappa) * abs(kappa)):
        raise NumericalError(f"|kappa|^2 is not a finite float at kappa = {kappa}")
    gauge = abs(kappa) ** 2 * n
    if gauge > 4.0:
        raise TruncationError(
            f"|kappa|^2 N = {gauge:.2f} > 4: the wave's boundary defect would reach "
            "into the interior; lower |kappa| or raise the cutoff"
        )
    energy = ctx.params.hbar**2 * abs(kappa) ** 2 / (ctx.params.mass * ctx.params.theta)

    def _exp_series(mat: np.ndarray) -> np.ndarray:
        out = np.eye(n, dtype=complex)
        term = np.eye(n, dtype=complex)
        for j in range(1, n):
            term = term @ mat / j
            out += term
            if not term.any():
                break
        return out

    left = _exp_series(1j * kappa * np.asarray(ctx.b))
    right = _exp_series(1j * np.conj(kappa) * np.asarray(ctx.bdag))
    return QuantumState(left @ right), energy


def interior_residual(s: SuperOperator, psi: QuantumState, eigenvalue: complex, depth: int) -> float:
    """|| S psi - eigenvalue psi ||_F / ||psi|| with the top `depth` levels masked out.

    The gauge for eigen-relations that hold exactly in infinite dimensions but
    acquire an O(1) defect on the truncation boundary.
    """
    n = psi.cutoff
    if not (0 <= depth <= n):
        raise UsageError(f"depth must be in 0 .. {n}, got {depth}")
    r = s.apply(psi).op - eigenvalue * psi.op
    if depth > 0:
        r[n - depth:, :] = 0.0
        r[:, n - depth:] = 0.0
    return float(np.linalg.norm(r) / psi.norm)


def continuity_residual(psi: QuantumState, h: Hamiltonian) -> float:
    """Frobenius norm of d(psi^dag psi)/dt - [x2, j1] - [x1, j2].

    The currents are

        j1 = (hbar / 2 m i theta^2) (psi^dag [x2, psi] - [x2, psi^dag] psi)
        j2 = (hbar / 2 m i theta^2) (psi^dag [x1, psi] - [x1, psi^dag] psi)

    and d rho/dt comes from dpsi/dt = -i H psi / hbar.  With the symmetric
    kinetic composition the identity is exact (roundoff only) for every state;
    any left-multiplication potential cancels between the two rho-dot terms.
    """
    if not isinstance(h, Hamiltonian):
        raise UsageError("continuity_residual needs a Hamiltonian built by hamiltonian()")
    p = h.ctx.params
    x1, x2, a = h.ctx.x1, h.ctx.x2, psi.op
    adag = a.conj().T

    psi_dot = -1j / p.hbar * h.apply(psi).op
    rho_dot = psi_dot.conj().T @ a + adag @ psi_dot

    c = p.hbar / (2.0 * p.mass * 1j * p.theta**2)
    j1 = c * (adag @ (x2 @ a - a @ x2) - (x2 @ adag - adag @ x2) @ a)
    j2 = c * (adag @ (x1 @ a - a @ x1) - (x1 @ adag - adag @ x1) @ a)

    resid = rho_dot - (x2 @ j1 - j1 @ x2) - (x1 @ j2 - j2 @ x1)
    return float(np.linalg.norm(resid))
