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
    FockContext,
    NumericalError,
    QuantumState,
    SuperOperator,
    TruncationError,
    UsageError,
    ValidationError,
    _frozen,
    _require_hermitian,
    _unit_offsets,
    support_weight,
    unvec,
    vec,
)
from .oscillator import lambdas

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
            _require_hermitian(table, table.conj().T, ValidationError, "potential table (v_mn = conj(v_nm))")
            object.__setattr__(self, "potential_coeffs", table)
        elif self.potential_coeffs is not None:
            raise ValidationError(f"kind={self.kind!r} takes no potential table")


class Hamiltonian(SuperOperator):
    """H = (P1^2 + P2^2)/2m + V as the module docstring's terms, from ctx and the bands (k, w) of V.

    c r^2 + V gives a left term per nonzero band, the diagonal c r^2 a right
    term, and each hop a term.  The hops are each other's adjoints, so H is
    Hermitian iff each band k of c r^2 + V is the conjugate of band -k; a
    defect raises ConsistencyError.  _eig holds _eig_cached's decomposition.
    """

    __slots__ = ("ctx", "_eig", "_lock")

    def __init__(self, ctx: FockContext, v_bands):
        n = self.cutoff = ctx.cutoff
        p = ctx.params
        den = 2.0 * p.mass * p.theta**2
        c = p.hbar**2 / den if den else math.inf
        if not math.isfinite(c):
            raise ConfigurationError(f"theta = {p.theta!r} is too small: the kinetic prefactor "
                                     "hbar^2/(2 m theta^2) is not a finite float")
        c_r_sq = c * ctx.r_sq_diag
        left = {0: c_r_sq}
        for k, w in map(self._side, v_bands):  # _side checks each band against self.cutoff, set above
            left[k] = left[k] + w if k in left else w
        bands = [(k, w) for k, w in sorted(left.items()) if w.any()]
        _require_hermitian(np.concatenate([w for _, w in bands] + [c_r_sq]),
                           np.concatenate([left.get(-k, 0.0 * w).conj() for k, w in bands] + [c_r_sq]),
                           ConsistencyError, "Hamiltonian")
        hop, root = -2.0 * c * p.theta, ctx.root  # b is the band (1, root), b^dag the band (-1, root)
        super().__init__(n, [(band, None) for band in bands] + [(None, (0, c_r_sq))]
                         + [((1, hop * root), (-1, root)), ((-1, hop * root), (1, root))])
        self.ctx = ctx
        self._eig = None
        self._lock = threading.Lock()


def _potential_bands(ctx: FockContext, spec: HamiltonianSpec) -> list:
    """The nonzero bands (k, w) of the spec's V, k ascending, with the bits of the dense powers.

    v_mk (b^dag)^m b^k adds v_mk sqrt(j+m)...sqrt(j+1) sqrt(j+1)...sqrt(j+k) at (j + m, j + k), which is
    index j + min(m, k) of band k - m; each running product is formed in the order the dense powers form
    it, and the terms add in row-major (m, k) order.
    """
    n = ctx.cutoff
    if spec.kind == "free":
        return []
    if spec.kind == "oscillator":
        p = ctx.params
        return [(0, 0.5 * p.mass * p.omega**2 * ctx.r_sq_diag)]
    table = spec.potential_coeffs if spec.potential_coeffs.imag.any() else spec.potential_coeffs.real
    bands = {}
    deg = min(table.shape[0], n)  # (b^dag)^m and b^k vanish from m, k = N on
    up, down = [np.ones(n)], [np.ones(n)]  # up[k][j] = sqrt(j+1)...sqrt(j+k), down[m][j] = sqrt(j+m)...sqrt(j+1)
    for i in range(1, deg):
        up.append(up[-1][:-1] * ctx.root[i - 1:])
        down.append(down[-1][1:] * ctx.root[:n - i])
    for m, k in zip(*np.nonzero(table[:deg, :deg])):
        size = n - max(m, k)
        band = bands.setdefault(k - m, np.zeros(n - abs(k - m), dtype=table.dtype))
        band[min(m, k):] += table[m, k] * (down[m][:size] * up[k][:size])
    return [(k, w) for k, w in sorted(bands.items()) if w.any()]


def hamiltonian(ctx: FockContext, spec: HamiltonianSpec) -> Hamiltonian:
    """H = (P1^2 + P2^2)/2m + V for the spec's potential V; Hermitian by construction.

    The oscillator is refused where lambdas refuses it, as at omega = 0, which is the free particle.
    """
    if spec.kind == "oscillator":
        lambdas(ctx.params)
    return Hamiltonian(ctx, _potential_bands(ctx, spec))


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenpairs of a Hamiltonian superoperator.

    eigenvalues ascending (by label inside a degenerate run, levels closer than
    1e-13 of the spectral scale; see spectrum_levels);
    eigenstates orthonormal under the Hilbert-Schmidt inner product.
    lz_expectations holds, per state, the expectation of the exact
    angular-momentum label, which multiplies the matrix unit |m><l| by
    -hbar (m - l).  When V is diagonal every state lies in one sector
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
    """H split into the classes of matrix units it never mixes, each block solved in place in one stack.

    The kinetic terms keep k = m - l of the unit |m><l| and a one-sided band
    term of offset d shifts k by -d, so H keeps k modulo g, the gcd of the
    offsets of its one-sided terms, and no term joins two classes.  With g = 0
    (free, oscillator, diagonal tables) each sector k is a class labelled
    exactly -hbar k, and slot c holds sectors c and c - N, each unit |m><l| at
    place l; else the g classes k mod g have label None, one per slot, each
    unit at its rank in vec order within its class, padded to the largest.
    A term (L, R) takes |q><r| to |p><s| with weight L[p, q] R[r, s], so only
    the products of its bands' nonzeros are formed (real when both bands are),
    and one += per term adds them, each to its own target, into the zeroed
    eigenvector stack at (slot, place of |p><s|, place of |q><r|), with no
    N^2 x N^2 matrix.  np.linalg.eigh then solves each block where it lies, in
    real arithmetic if its imaginary part is exactly zero.
    """
    n = h.cutoff
    k = _unit_offsets(n).reshape(-1)
    g = math.gcd(*(abs((left or right)[0]) for left, right in h.terms if left is None or right is None))
    # each unit's class (sector k, or k mod g), its slot and its place in the slot
    cls = k if g == 0 else k % g
    slot, place = cls % (g or n), np.arange(n * n) % n
    for c in range(g):
        place[cls == c] = np.arange(np.count_nonzero(cls == c))
    idx = np.full((g or n, place.max() + 1), n * n)
    idx[slot, place] = np.arange(n * n)
    dtype = np.result_type(*(side[1] for term in h.terms for side in term if side is not None))
    w, v = np.zeros(idx.shape), np.zeros(idx.shape + idx.shape[-1:], dtype=dtype)
    for left, right in h.terms:
        (p, q, x), (r, s, y) = _nonzeros(left, n), _nonzeros(right, n)
        rows, cols = np.add.outer(p * n, s), np.add.outer(q * n, r)
        v[slot[rows], place[rows], place[cols]] += np.multiply.outer(x, y)
    blocks = []
    for c in range(1 - n, n) if g == 0 else range(g):
        # sector c sits in slot c mod N at its units' l; class c fills slot c from 0, padded at N^2
        s = c % (g or n)
        at = slice(max(-c, 0), n - max(c, 0)) if g == 0 else slice(0, np.count_nonzero(cls == c))
        mat = v[s, at, at]
        w[s, at], v[s, at, at] = np.linalg.eigh(mat if mat.imag.any() else mat.real)
        blocks.append((idx[s, at], h.ctx.params.hbar * -c if g == 0 else None, w[s, at], v[s, at, at]))
    return idx, w, v, blocks


def _nonzeros(side, n: int) -> tuple:
    """(rows, columns, values) of the nonzero entries of a band side; None is the identity, band (0, 1)."""
    k, w = side or (0, np.ones(n))
    i = np.flatnonzero(w)
    return i + max(-k, 0), i + max(k, 0), w[i]


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
    oscillator, and potential tables whose V is diagonal give 2N-1
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
    start = np.cumsum([0] + [len(w) for _, _, w, _ in blocks])  # block b's eigenpairs are vals[start[b]:start[b + 1]]
    order = np.argsort(vals, kind="stable")
    ordered = vals[order]
    ctol = 1e-13 * max(1.0, float(np.max(np.abs(vals))))
    # the exact label -hbar (m - l) of each unit |m><l| in vec order; the integers are
    # negated first, so sector 0 reads +0.0
    label = (h.ctx.params.hbar * -_unit_offsets(n)).reshape(-1)
    guard = max(n - 4, 0)

    # a run ends where the next eigenvalue is ctol or more above it: run r is order[cuts[r]:cuts[r + 1]]
    cuts = np.flatnonzero(np.diff(ordered, prepend=-np.inf, append=np.inf) >= ctol)
    for i, j in zip(cuts, cuts[1:]):
        run = order[i:j]
        block = np.searchsorted(start, run, side="right") - 1
        found = []  # (eigenvalue, label, vec indices, eigenvector)
        for b in dict.fromkeys(block.tolist()):  # each block once, in the order the run meets it
            idx, lz, w, v = blocks[b]
            cols = run[block == b] - start[b]
            vecs = v[:, cols]
            if lz is None:  # diagonalize the label over the block's columns in the run
                label_block = vecs.conj().T @ (label[idx, None] * vecs)
                lzs, rot = ((label_block.real[0], np.eye(1)) if len(cols) == 1  # what eigh returns for 1 x 1
                            else np.linalg.eigh(0.5 * (label_block + label_block.conj().T)))
                vecs = vecs @ rot
            else:  # every state of a sector carries its exact label
                lzs = [lz] * len(cols)
            found += [(w[q], float(lz_q), idx, u) for q, lz_q, u in zip(cols, lzs, vecs.T)]
        for e, lz, idx, u in sorted(found, key=lambda r: r[1]):
            op = np.zeros((n, n), dtype=complex)
            vec(op)[idx] = _phase_fixed(u)
            state = QuantumState(_frozen(op))
            yield e, state, lz, support_weight(state, guard)


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

    No loop over classes and no N^2 x N^2 matrix: O(N^3) in all when V
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
        wt = w * t * (1.0 / h.ctx.params.hbar)  # as numpy's complex -1j w t / hbar rounds it: times 1/hbar
    if not np.isfinite(wt).all():
        raise NumericalError(f"the phase w t / hbar overflows double precision at t = {t}")
    padded = idx.size > psi0.op.size  # a padded entry reads and writes vec index N^2, past the state
    psi = (np.append(vec(psi0.op), 0.0) if padded else vec(psi0.op))[idx]
    coeffs = np.exp(-1j * wt) * _stack_product(v.mT, psi.conj()).conj()  # V^dag psi, V never copied
    out = np.empty(psi0.op.size + 1 if padded else psi0.op.shape, dtype=complex)
    vec(out)[idx] = _stack_product(v, coeffs)
    return QuantumState(unvec(out[:-1], h.cutoff) if padded else _frozen(out))


def boundary_defect_depth(kappa: complex, cutoff: int) -> int:
    """A priori depth of the truncation defect band of a plane wave.

    The truncated wave's Hamiltonian residual lives on the top d Fock levels
    where d is the first integer with (|kappa| sqrt(N))^d / d! < 1e-9; entries
    deeper inside are exact to that tolerance.
    """
    x = abs(kappa) * math.sqrt(cutoff)
    term = 1.0
    for d in range(1, cutoff):
        term *= x / d
        if term < 1e-9:
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
        raise TruncationError(f"|kappa|^2 N = {gauge!r} > 4: the wave's boundary defect would reach "
                              "into the interior; lower |kappa| or raise the cutoff")
    energy = ctx.params.hbar**2 * abs(kappa) ** 2 / (ctx.params.mass * ctx.params.theta)

    left = _exp_ladder(1j * kappa, n)
    right = _exp_ladder(1j * kappa.conjugate(), n).T  # e^{a b^dag} is e^{a b} transposed: b^dag = b^T
    return QuantumState(_frozen(left @ right)), energy


def _exp_ladder(a: complex, n: int) -> np.ndarray:
    """e^{a b} on N levels in closed form: entry (m, m+j) is a^j/j! sqrt((m+j)!/m!).

    Row j of d is the running product over i <= j of (a/i) sqrt(m+i), read out at (m, m+j).
    """
    i = np.arange(1, n)[:, None]
    d = np.cumprod(np.vstack((np.ones((1, n)), (a / i) * np.sqrt(i + np.arange(n)))), axis=0)
    j = -_unit_offsets(n)  # k - m at (m, k)
    return np.where(j >= 0, d[j % n, np.arange(n)[:, None]], 0.0)


def interior_residual(s: SuperOperator, psi: QuantumState, eigenvalue: complex, depth: int) -> float:
    """|| S psi - eigenvalue psi ||_F / ||psi|| with the top `depth` levels masked out.

    The gauge for eigen-relations that hold exactly in infinite dimensions but
    acquire an O(1) defect on the truncation boundary.
    """
    n = psi.cutoff
    if not (0 <= depth <= n):
        raise UsageError(f"depth must be in 0 .. {n}, got {depth}")
    if psi.norm_sq == 0.0:
        raise UsageError("interior_residual of the zero state is undefined")
    r = s.apply(psi).op - eigenvalue * psi.op
    r[n - depth:] = r[:, n - depth:] = 0.0  # depth 0 masks nothing
    return float(np.linalg.norm(r) / psi.norm)


def _x_commutators(h: Hamiltonian, a: np.ndarray) -> tuple:
    """[x1, a] and [x2, a] for each matrix of a, by shifts; x1 = s (b + b^dag), x2 = i s (b^dag - b)."""
    r, s = h.ctx.root, math.sqrt(h.ctx.params.theta / 2.0)  # r = sqrt(l + 1)
    ba, bda = np.zeros_like(a), np.zeros_like(a)  # [b, a] and [b^dag, a]
    ba[..., :-1, :], bda[..., 1:, :] = r[:, None] * a[..., 1:, :], r[:, None] * a[..., :-1, :]  # b a, b^dag a
    ba[..., 1:] -= a[..., :-1] * r  # a b: column l reads a[:, l-1] sqrt(l)
    bda[..., :-1] -= a[..., 1:] * r  # a b^dag: column l reads a[:, l+1] sqrt(l+1)
    return s * (ba + bda), 1j * s * (bda - ba)


def continuity_residual(psi: QuantumState, h: Hamiltonian) -> float:
    """Frobenius norm of d(psi^dag psi)/dt - [x2, j1] - [x1, j2].

    The currents are

        j1 = (hbar / 2 m i theta^2) (psi^dag [x2, psi] - [x2, psi^dag] psi)
        j2 = (hbar / 2 m i theta^2) (psi^dag [x1, psi] - [x1, psi^dag] psi)

    and d rho/dt comes from dpsi/dt = -i H psi / hbar.  With the symmetric
    kinetic composition the identity is exact (roundoff only) for every state;
    any left-multiplication potential cancels between the two rho-dot terms.
    As [x, psi^dag] = -[x, psi]^dag, j = c (M + M^dag) with M = psi^dag [x, psi], and d rho/dt = K + K^dag
    with K = psi^dag dpsi/dt: three dense products, each commutator with x1 or x2 taken by shifts.
    """
    if not isinstance(h, Hamiltonian):
        raise UsageError("continuity_residual needs a Hamiltonian built by hamiltonian()")
    p, a = h.ctx.params, psi.op
    adag = a.conj().T
    k = adag @ (-1j / p.hbar * h.apply(psi).op)
    c = p.hbar / (2.0 * p.mass * 1j * p.theta**2)
    d1, d2 = _x_commutators(h, a)
    m = adag @ np.stack((d2, d1))
    x1_j, x2_j = _x_commutators(h, c * (m + m.conj().mT))  # [x, .] of the stack (j1, j2)
    return float(np.linalg.norm(k + k.conj().T - x2_j[0] - x1_j[1]))
