"""Hamiltonians on the state space, spectra, time evolution, plane waves, continuity.

The kinetic superoperator is built as the symmetric composition

    (P1^2 + P2^2)/2m = (hbar^2 / 2m theta^2) ([x2,[x2, .]] + [x1,[x1, .]]),

not as the algebraically equivalent (hbar^2/m theta)[b^dag,[b, .]]: under
truncation the two differ by a boundary superoperator, and only the symmetric
form keeps probability conservation and the continuity identity exact for
every state, boundary-supported ones included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FockContext,
    QuantumState,
    SuperOperator,
    TruncationError,
    UsageError,
    ValidationError,
    support_weight,
    unvec,
    vec,
)

__all__ = [
    "HamiltonianSpec",
    "Hamiltonian",
    "hamiltonian",
    "SpectrumResult",
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
            if table.ndim != 2 or table.shape[0] != table.shape[1]:
                raise ValidationError(f"potential_coeffs must be a square table, got {table.shape}")
            defect = np.max(np.abs(table - table.conj().T))
            if defect > 1e-12 * max(1.0, np.max(np.abs(table))):
                raise ValidationError(
                    f"potential table is not Hermitian (v_mn = conj(v_nm) violated by {defect:.3e})"
                )
            object.__setattr__(self, "potential_coeffs", table)
        elif self.potential_coeffs is not None:
            raise ValidationError(f"kind={self.kind!r} takes no potential table")


class Hamiltonian(SuperOperator):
    """A Hamiltonian superoperator that remembers its context, potential part and _eig_cached."""

    __slots__ = ("ctx", "spec", "v_matrix", "_eig")

    def __init__(self, terms, ctx: FockContext, spec: HamiltonianSpec, v_matrix: np.ndarray):
        super().__init__(terms, hermitian_on_Hq=True)
        self.ctx = ctx
        self.spec = spec
        self.v_matrix = v_matrix
        self._eig = None


def _potential_matrix(ctx: FockContext, spec: HamiltonianSpec) -> np.ndarray:
    n = ctx.cutoff
    if spec.kind == "free":
        return np.zeros((n, n), dtype=complex)
    if spec.kind == "oscillator":
        p = ctx.params
        return 0.5 * p.mass * p.omega**2 * (ctx.x1 @ ctx.x1 + ctx.x2 @ ctx.x2)
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
    """Assemble H = (P1^2 + P2^2)/2m + V as a term list; Hermitian by construction."""
    p = ctx.params
    n = ctx.cutoff
    eye = np.eye(n, dtype=complex)
    c = p.hbar**2 / (2.0 * p.mass * p.theta**2)
    terms = []
    for a in (ctx.x2, ctx.x1):
        a_sq = a @ a
        terms.append((c * a_sq, eye))
        terms.append((-2.0 * c * a, a))
        terms.append((c * eye, a_sq))
    v_mat = _potential_matrix(ctx, spec)
    if spec.kind != "free":
        terms.append((v_mat, eye))
    return Hamiltonian(terms, ctx=ctx, spec=spec, v_matrix=v_mat)


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenpairs of a Hamiltonian superoperator.

    eigenvalues ascending; eigenstates orthonormal under the Hilbert-Schmidt
    inner product.  lz_expectations holds, per state, the expectation of the
    exact angular-momentum label, which multiplies the matrix unit |m><l| by
    -hbar (m - l).  On the sector route every state lies in one sector
    k = m - l, so the entry is exactly -hbar k.  The label is used rather than
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


def _clusters(vals: np.ndarray, count: int, ctol: float) -> list[tuple[int, int]]:
    """Runs [i, j) of ascending vals whose neighbours lie closer than ctol.

    They cover at least the first `count` values and never split a run, so an
    exactly degenerate level is never cut off halfway.
    """
    runs = []
    i = 0
    while i < count:
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] < ctol:
            j += 1
        runs.append((i, j))
        i = j
    return runs


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    # the largest component (first of equals) made real and positive
    pivot = np.argmax(np.abs(v))
    return v * (v[pivot] / abs(v[pivot])).conjugate()


def _sector_invariant(h: Hamiltonian) -> bool:
    """True when H conserves k = m - l, so it splits into tridiagonal sector blocks.

    The kinetic part always does (the sector-changing pieces of its x1 and x2
    terms cancel exactly).  A left-multiplication potential does exactly
    when its matrix is diagonal in the Fock basis: free, oscillator, and any
    table whose truncated v_matrix has no entry off the diagonal.
    """
    v = h.v_matrix
    return not np.any(v - np.diag(np.diagonal(v)))


def _sector_blocks(h: Hamiltonian) -> list:
    """The 2N-1 real symmetric tridiagonal sector blocks of H, each diagonalized.

    The block entries come from H's own terms, so the truncated operator is the
    one the dense route materializes.  Sector k holds the units |i+k><i| (k >= 0)
    or |i><i-k| (k < 0), i ascending; H maps |m><l| into itself and its
    neighbours |m+-1><l+-1|:

        diagonal    sum_t L_t[m, m] R_t[l, l]
        off-diagonal  sum_t L_t[m+1, m] R_t[l, l+1]

    Each is a product of one diagonal of L_t and one of R_t, so the entries of
    all sectors at once are the diagonals of two N-sized matrix products.
    """
    from scipy.linalg import eigh_tridiagonal  # only this route needs it

    def stacked(side: int, offset: int) -> np.ndarray:
        return np.array([np.diagonal(term[side], offset) for term in h.terms])

    n = h.cutoff
    hbar = h.ctx.params.hbar
    diag = (stacked(0, 0).T @ stacked(1, 0)).real  # [m, l]: unit |m><l| onto itself
    off = (stacked(0, -1).T @ stacked(1, 1)).real  # [m, l]: |m><l| onto |m+1><l+1|
    blocks = []
    for k in range(1 - n, n):
        rows = np.arange(n - abs(k)) + max(k, 0)
        w, v = eigh_tridiagonal(np.diagonal(diag, -k), np.diagonal(off, -k))
        blocks.append((rows * (n + 1) - k, hbar * -k, w, v))
    return blocks


def _eig_cached(h: Hamiltonian) -> list:
    """The one eigendecomposition of H, computed on first use; solve_spectrum and evolve share it.

    A list of blocks (vec indices, label, eigenvalues ascending, eigenvectors
    as columns).  A Hamiltonian that conserves k = m - l gets its 2N-1 sector
    blocks, each carrying its exact label -hbar k, and no N^2 x N^2 matrix is
    built.  Any other gets one block over all N^2 units with label None, from
    the eigh of the materialized matrix; h.matrix has already refused a
    non-Hermitian one (ConsistencyError), since every Hamiltonian carries the
    Hermitian flag.
    """
    with h._lock:  # reentrant: h.matrix takes it too
        if h._eig is None:
            if _sector_invariant(h):
                h._eig = _sector_blocks(h)
            else:
                h._eig = [(slice(None), None, *np.linalg.eigh(h.matrix))]
        return h._eig


def solve_spectrum(h: Hamiltonian, count: int) -> SpectrumResult:
    """Lowest `count` eigenpairs of H, read off the blocks of _eig_cached, which evolve shares.

    Free, oscillator, and potential tables whose v_matrix is diagonal give
    2N-1 tridiagonal sector blocks of size N - |k|; any other table gives one
    dense block over all N^2 units.

    Ordering: energy ascending; eigenvalues closer than 1e-8 of the spectral
    scale form one degenerate cluster, ordered by ascending lz_expectations
    (the exact label, see SpectrumResult).  Phase: the largest component of
    each eigenstate, first of equals in vec order, is real and positive.
    """
    if not isinstance(h, Hamiltonian):
        raise UsageError("solve_spectrum needs a Hamiltonian built by hamiltonian()")
    n = h.cutoff
    if not (1 <= count <= n * n):
        raise UsageError(f"count must be in 1 .. {n * n}, got {count}")

    blocks = _eig_cached(h)
    vals = np.concatenate([w for _, _, w, _ in blocks])
    where = [(b, q) for b, (_, _, w, _) in enumerate(blocks) for q in range(len(w))]
    order = np.argsort(vals, kind="stable")
    scale = max(1.0, float(np.max(np.abs(vals))))
    levels = np.arange(n)  # the exact label -hbar (m - l) of each unit |m><l|, vec ordering:
    label = (h.ctx.params.hbar * (levels[None, :] - levels[:, None])).reshape(-1)

    picked = []  # (eigenvalue, label, vec indices, eigenvector)
    for i, j in _clusters(vals[order], count, 1e-8 * scale):
        run = [where[q] for q in order[i:j]]
        if all(blocks[b][1] is not None for b, _ in run):
            # a run spans distinct sectors (a Jacobi block has simple eigenvalues): order by label
            for b, q in sorted(run, key=lambda r: blocks[r[0]][1]):
                idx, lz, w, v = blocks[b]
                picked.append((w[q], lz, idx, v[:, q]))
        else:
            # the dense block: diagonalize the label inside the run (ascending)
            idx, _, w, v = blocks[0]
            cols = [q for _, q in run]
            vecs = v[:, cols]
            label_block = vecs.conj().T @ (label[:, None] * vecs)
            label_vals, rot = np.linalg.eigh(0.5 * (label_block + label_block.conj().T))
            for q, lz, u in zip(cols, label_vals, (vecs @ rot).T):
                picked.append((w[q], float(lz), idx, u))

    states = []
    for _, _, idx, u in picked[:count]:
        op = np.zeros(n * n, dtype=complex)
        op[idx] = _phase_fixed(u)
        states.append(QuantumState(unvec(op, n)))
    guard = max(n - 4, 0)
    return SpectrumResult(
        eigenvalues=np.array([e for e, _, _, _ in picked[:count]]),
        eigenstates=states,
        lz_expectations=np.array([lz for _, lz, _, _ in picked[:count]]),
        boundary_weights=np.array([support_weight(s, guard) for s in states]),
    )


def evolve(psi0: QuantumState, h: Hamiltonian, t: float) -> QuantumState:
    """exp(-i H t / hbar) psi0, block by block through the blocks of _eig_cached.

    For H conserving k = m - l each sector of psi0 evolves on its own, O(N^3)
    in all, with no N^2 x N^2 matrix.  The blocks are shared with
    solve_spectrum and read-only, so repeated and concurrent calls are cheap
    and safe.  Unitarity is exact up to roundoff for any real t.
    """
    if not isinstance(h, Hamiltonian):
        raise UsageError("evolve needs a Hamiltonian built by hamiltonian()")
    if psi0.cutoff != h.cutoff:
        raise UsageError(f"cutoff mismatch: Hamiltonian {h.cutoff}, state {psi0.cutoff}")
    hbar = h.ctx.params.hbar
    psi = vec(psi0.op)
    out = np.empty_like(psi)
    for idx, _, w, v in _eig_cached(h):
        out[idx] = v @ (np.exp(-1j * w * t / hbar) * (v.conj().T @ psi[idx]))
    return QuantumState(unvec(out, h.cutoff))


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
    r = np.array(r)
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
    ctx = h.ctx
    p = ctx.params
    x1 = np.asarray(ctx.x1)
    x2 = np.asarray(ctx.x2)
    a = np.asarray(psi.op)
    adag = a.conj().T

    psi_dot = -1j / p.hbar * h.apply(psi).op
    rho_dot = psi_dot.conj().T @ a + adag @ psi_dot

    c = p.hbar / (2.0 * p.mass * 1j * p.theta**2)
    j1 = c * (adag @ (x2 @ a - a @ x2) - (x2 @ adag - adag @ x2) @ a)
    j2 = c * (adag @ (x1 @ a - a @ x1) - (x1 @ adag - adag @ x1) @ a)

    resid = rho_dot - (x2 @ j1 - j1 @ x2) - (x1 @ j2 - j2 @ x1)
    return float(np.linalg.norm(resid))
