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
    """A Hamiltonian superoperator that remembers its context and potential part."""

    __slots__ = ("ctx", "spec", "v_matrix")

    def __init__(self, terms, ctx: FockContext, spec: HamiltonianSpec, v_matrix: np.ndarray):
        super().__init__(terms, hermitian_on_Hq=True)
        self.ctx = ctx
        self.spec = spec
        self.v_matrix = v_matrix


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
    inner product; lz_expectations the angular-momentum expectation per state.
    boundary_weights is support_weight(state, N-4): truncation-boundary
    artifacts show up as weight near 1 there, physical levels near 0.  The
    truncated spectrum contains such spurious boundary states interleaved with
    the physical ones, so consumers filter on this column.
    """

    eigenvalues: np.ndarray
    eigenstates: list
    lz_expectations: np.ndarray
    boundary_weights: np.ndarray


def _lz_diagonal(ctx: FockContext) -> np.ndarray:
    # diagonal of the Lz superoperator in the matrix-unit basis, vec ordering
    r_sq = ctx.x1 @ ctx.x1 + ctx.x2 @ ctx.x2
    d = np.real(np.diag(r_sq))
    coef = -ctx.params.hbar / (2.0 * ctx.params.theta)
    return (coef * (d[:, None] - d[None, :])).reshape(-1)


def solve_spectrum(h: Hamiltonian, count: int) -> SpectrumResult:
    """Lowest `count` eigenpairs of the materialized N^2 x N^2 Hermitian matrix.

    Ordering: energy ascending; exact degeneracies are resolved by
    diagonalizing Lz inside each eigenvalue cluster (ascending Lz), which also
    makes the eigenvectors deterministic; remaining ties fall back to a
    lexicographic comparison of the phase-fixed components.
    """
    if not isinstance(h, Hamiltonian):
        raise UsageError("solve_spectrum needs a Hamiltonian built by hamiltonian()")
    n = h.cutoff
    if not (1 <= count <= n * n):
        raise UsageError(f"count must be in 1 .. {n * n}, got {count}")

    evals, evecs = _eig_cached(h)

    lz_diag = _lz_diagonal(h.ctx)
    scale = max(1.0, float(np.max(np.abs(evals))))
    ctol = 1e-8 * scale

    # extend past `count` so a degenerate cluster is never split
    upto = count
    while upto < len(evals) and evals[upto] - evals[upto - 1] < ctol:
        upto += 1

    picked_vals = []
    picked_vecs = []
    picked_lz = []
    i = 0
    while i < upto:
        j = i + 1
        while j < upto and evals[j] - evals[j - 1] < ctol:
            j += 1
        block = evecs[:, i:j]
        if j - i > 1:
            lz_block = block.conj().T @ (lz_diag[:, None] * block)
            lz_block = 0.5 * (lz_block + lz_block.conj().T)
            lz_vals, rot = np.linalg.eigh(lz_block)
            block = block @ rot
        else:
            lz_vals = np.array([np.real(np.vdot(block[:, 0], lz_diag * block[:, 0]))])
        for k in range(j - i):
            v = block[:, k]
            pivot = np.argmax(np.abs(v))
            phase = v[pivot] / abs(v[pivot])
            v = v * phase.conjugate()
            picked_vals.append(evals[i + k])
            picked_vecs.append(v)
            picked_lz.append(lz_vals[k])
        i = j

    order = sorted(
        range(len(picked_vals)),
        key=lambda q: (
            round(picked_vals[q] / scale, 12),
            round(picked_lz[q], 9),
            np.round(picked_vecs[q].real, 10).tobytes(),
            np.round(picked_vecs[q].imag, 10).tobytes(),
        ),
    )
    order = order[:count]

    states = [QuantumState(unvec(picked_vecs[q], n)) for q in order]
    guard = max(n - 4, 0)
    return SpectrumResult(
        eigenvalues=np.array([picked_vals[q] for q in order]),
        eigenstates=states,
        lz_expectations=np.array([picked_lz[q] for q in order]),
        boundary_weights=np.array([support_weight(s, guard) for s in states]),
    )


def _eig_cached(h: Hamiltonian):
    """One eigendecomposition per Hamiltonian, shared by solve_spectrum and evolve.

    h.matrix already refused a non-Hermitian matrix (ConsistencyError), since
    every Hamiltonian carries the Hermitian flag.
    """
    mat = h.matrix  # materialized under the operator's own lock
    with h._lock:
        if h._eig is None:
            h._eig = np.linalg.eigh(mat)
        return h._eig


def evolve(psi0: QuantumState, h: Hamiltonian, t: float) -> QuantumState:
    """exp(-i H t / hbar) psi0 through the spectral decomposition of H.

    The decomposition is computed once per Hamiltonian and reused (read-only),
    so repeated and concurrent calls are cheap and safe.  Unitarity is exact up
    to roundoff for any real t.
    """
    if not isinstance(h, Hamiltonian):
        raise UsageError("evolve needs a Hamiltonian built by hamiltonian()")
    hbar = h.ctx.params.hbar
    evals, evecs = _eig_cached(h)
    coeff = evecs.conj().T @ vec(psi0.op)
    coeff = coeff * np.exp(-1j * evals * t / hbar)
    return QuantumState(unvec(evecs @ coeff, psi0.cutoff))


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
