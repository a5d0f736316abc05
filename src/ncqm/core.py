"""Truncated Fock configuration space and the Hilbert-Schmidt state space built on it.

The configuration space is the boson Fock space carrying [x1, x2] = i*theta,
truncated to the lowest N levels.  Physical states are N x N complex matrices
(Hilbert-Schmidt operators on configuration space) with inner product
tr(phi^dag psi).  Observables act on states as superoperators, sums of terms
psi -> L psi R whose sides are bands of the Fock basis, applied by shifts; the
N^2 x N^2 matrix is built only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "NcqmError",
    "UsageError",
    "NumericalError",
    "ConfigurationError",
    "ValidationError",
    "DegenerateOscillatorError",
    "TruncationError",
    "ConvergenceError",
    "ConsistencyError",
    "MeasurementImpossibleError",
    "ModelParams",
    "FockContext",
    "QuantumState",
    "SuperOperator",
    "build_fock",
    "hs_inner",
    "support_weight",
    "vec",
    "unvec",
]


class NcqmError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(NcqmError):
    """Usage family, CLI exit 2: arguments outside an operation's contract (mismatched cutoffs, bad ranges)."""


class NumericalError(NcqmError):
    """Numerical family, CLI exit 3: valid input, but no trustworthy answer (breakdown, verification miss)."""


class ConfigurationError(UsageError):
    """Invalid model parameters (usage family)."""


class ValidationError(UsageError):
    """Structurally invalid input data, such as a non-Hermitian potential table (usage family)."""


class DegenerateOscillatorError(UsageError):
    """Oscillator quantities requested at omega = 0, the free particle (usage family)."""


class TruncationError(NumericalError):
    """The requested object is not representable at the current cutoff (numerical family)."""


class ConvergenceError(NumericalError):
    """An iterative evaluation hit its cap before converging (numerical family)."""


class ConsistencyError(NumericalError):
    """Two internal closed forms that must agree did not (numerical family)."""


class MeasurementImpossibleError(NumericalError):
    """Post-measurement state undefined: detection probability is numerically zero (numerical family)."""


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and the truncation cutoff; the single source of units.

    theta:  non-commutativity parameter, dimension length^2.  theta >= 0; the
            Fock-space representation itself additionally needs theta > 0
            (enforced by build_fock), while the closed-form oscillator layer
            accepts theta = 0 as the commutative limit.
    hbar:   action quantum, > 0.
    mass:   particle mass, > 0.
    omega:  oscillator frequency, >= 0 (0 means free particle).
    cutoff: number of retained Fock levels N >= 2 (levels 0 .. N-1).
    theta, hbar, mass and omega must each have a finite square (below about 1.34e154).
    """

    theta: float
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    cutoff: int = 30

    def __post_init__(self):
        if not (self.theta >= 0.0) or not np.isfinite(self.theta):
            raise ConfigurationError(f"theta must be >= 0 and finite, got {self.theta}")
        if not (self.hbar > 0.0) or not np.isfinite(self.hbar):
            raise ConfigurationError(f"hbar must be > 0, got {self.hbar}")
        if not (self.mass > 0.0) or not np.isfinite(self.mass):
            raise ConfigurationError(f"mass must be > 0, got {self.mass}")
        if not (self.omega >= 0.0) or not np.isfinite(self.omega):
            raise ConfigurationError(f"omega must be >= 0, got {self.omega}")
        if int(self.cutoff) != self.cutoff or self.cutoff < 2:
            raise ConfigurationError(f"cutoff must be an integer >= 2, got {self.cutoff}")
        for name in ("theta", "hbar", "mass", "omega"):  # every closed form squares them
            value = getattr(self, name)
            if not math.isfinite(value * value):
                raise ConfigurationError(f"{name} = {value!r} is too large: its square overflows")
        object.__setattr__(self, "cutoff", int(self.cutoff))


def _require_hermitian(mat: np.ndarray, error: type, what: str) -> None:
    """Raise error unless each matrix of mat is its conjugate transpose within 1e-12 of max(1, max |mat|)."""
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN defect, refused below
        defect = np.max(np.abs(mat - mat.conj().mT))
    scale = max(1.0, np.max(np.abs(mat)))
    if not defect <= 1e-12 * scale:  # a NaN or inf defect fails too
        raise error(f"{what} is not Hermitian: Hermiticity defect {defect:.3e} (scale {scale:.3e})")


@lru_cache(maxsize=4)
def _unit_offsets(n: int) -> np.ndarray:
    """m - l of each matrix unit |m><l| of an N x N state, as a read-only N x N integer array.

    The unit's rotation label: a rotation by phi multiplies it by e^{i phi (m - l)},
    Lz labels it -hbar (m - l), and a rotation-invariant Hamiltonian never changes it.
    Built once per N, since pointwise densities read it on every call.
    """
    return _frozen(np.subtract.outer(np.arange(n), np.arange(n)))


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a fresh array that nothing else references read-only, in place."""
    a.setflags(write=False)
    return a


def _readonly(a: np.ndarray, dtype: type = complex) -> np.ndarray:
    # a frozen array is shared, not copied, if it owns its data: a view could change through its base
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous
            and a.flags.owndata and not a.flags.writeable):
        return a
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FockContext:
    """Truncated configuration-space operators shared by every module.

    b is the annihilator, b[n-1, n] = sqrt(n); bdag its conjugate transpose;
    x1 = sqrt(theta/2)(b + bdag) and x2 = i sqrt(theta/2)(bdag - b) the
    non-commuting coordinates, and r_sq = x1^2 + x2^2 the truncated
    radius square that the Hamiltonian, the oscillator potential and Lz share.
    Each is a read-only N x N array built on its first read and cached: states,
    densities and the POVM need only N and theta, so a context that only
    measures never allocates them.
    """

    params: ModelParams

    @property
    def cutoff(self) -> int:
        return self.params.cutoff

    @cached_property
    def b(self) -> np.ndarray:
        n = self.cutoff
        b = np.zeros((n, n), dtype=complex)
        levels = np.arange(1, n)
        b[levels - 1, levels] = np.sqrt(levels)
        return _frozen(b)

    @cached_property
    def bdag(self) -> np.ndarray:
        return _frozen(np.ascontiguousarray(self.b.conj().T))

    @cached_property
    def x1(self) -> np.ndarray:
        return _frozen(np.sqrt(self.params.theta / 2.0) * (self.b + self.bdag))

    @cached_property
    def x2(self) -> np.ndarray:
        return _frozen(1j * np.sqrt(self.params.theta / 2.0) * (self.bdag - self.b))

    @cached_property
    def r_sq(self) -> np.ndarray:
        return _frozen(self.x1 @ self.x1 + self.x2 @ self.x2)


def build_fock(params: ModelParams) -> FockContext:
    """The truncated Fock context for the given parameters; no operator is built until read.

    Raises ConfigurationError when theta = 0: the representation has
    x_i = 0 and momenta carry 1/theta factors, so the commutative point is
    served by the closed-form layer instead.
    """
    if params.theta <= 0.0:
        raise ConfigurationError(
            "the Fock representation needs theta > 0; "
            "use the closed-form oscillator layer for the commutative limit"
        )
    return FockContext(params)


class QuantumState:
    """An element of the quantum Hilbert space: an N x N matrix with tr(psi^dag psi) norm.

    The matrix is copied and frozen at construction; norm_sq is cached.  A
    matrix with a NaN or inf entry, or whose norm overflows, is a UsageError.
    """

    __slots__ = ("op", "norm_sq")

    def __init__(self, op: np.ndarray):
        op = np.asarray(op, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise UsageError(f"state matrix must be square, got shape {op.shape}")
        self.op = _readonly(op)
        self.norm_sq = float(np.vdot(self.op, self.op).real)
        if not math.isfinite(self.norm_sq):
            raise UsageError("state matrix holds non-finite (NaN or inf) entries or its norm overflows")

    @property
    def cutoff(self) -> int:
        return self.op.shape[0]

    @property
    def norm(self) -> float:
        return np.sqrt(self.norm_sq)

    def is_normalized(self) -> bool:
        return abs(self.norm_sq - 1.0) <= 1e-12

    def normalized(self) -> "QuantumState":
        if self.norm_sq == 0.0:
            raise UsageError("cannot normalize the zero state")
        return QuantumState(self.op / self.norm)

    def dagger(self) -> "QuantumState":
        return QuantumState(self.op.conj().T)

    def __repr__(self):
        return f"QuantumState(cutoff={self.cutoff}, norm_sq={self.norm_sq:.6g})"


def hs_inner(phi: QuantumState, psi: QuantumState) -> complex:
    """Hilbert-Schmidt inner product tr(phi^dag psi); conjugate-linear in phi."""
    if phi.cutoff != psi.cutoff:
        raise UsageError(f"cutoff mismatch: {phi.cutoff} vs {psi.cutoff}")
    return complex(np.vdot(phi.op, psi.op))


def vec(op: np.ndarray) -> np.ndarray:
    """Flatten a matrix with the fixed convention index(m, n) = m*N + n."""
    return np.asarray(op).reshape(-1)


def unvec(v: np.ndarray, cutoff: int) -> np.ndarray:
    """Inverse of vec; exact round trip."""
    return np.asarray(v).reshape(cutoff, cutoff)


class SuperOperator:
    """A linear map on quantum states as a sum of banded terms, psi -> sum_t L_t psi R_t.

    Each side of a term is one band (k, w), the N x N matrix with w where
    np.diagonal(., k) reads (w real when the band has no imaginary part), or
    None, the identity, which apply skips.  A term applies as a shifted
    elementwise product in O(N^2).  `matrix` builds sum_t kron(L_t, R_t^T) under
    the vec convention above on every read, as a plain oracle for tests; no
    library path reads it, and it stays because the benchmark's tracer wraps it.
    Operators compose with @, add with +, and scale with *.
    """

    __slots__ = ("cutoff", "terms")

    def __init__(self, cutoff: int, terms):
        self.cutoff = cutoff
        self.terms = tuple((self._side(left), self._side(right)) for left, right in terms)
        if not self.terms:
            raise UsageError("a superoperator needs at least one (left, right) term")

    def _side(self, side):
        if side is None:
            return None
        k, w = side[0], np.asarray(side[1])
        if not abs(k) < self.cutoff or w.shape != (self.cutoff - abs(k),):
            raise UsageError(f"a band of cutoff {self.cutoff} needs |offset| < {self.cutoff} and one weight "
                             f"per entry, got offset {k} and weights of shape {w.shape}")
        real = not (np.iscomplexobj(w) and w.imag.any())
        return int(k), _readonly(w.real if real else w, float if real else complex)

    def apply(self, psi: QuantumState) -> QuantumState:
        n = self.cutoff
        if psi.cutoff != n:
            raise UsageError(f"cutoff mismatch: operator {n}, state {psi.cutoff}")
        a, every = psi.op, (slice(None), slice(None))
        out = np.zeros_like(a)  # accumulated from +0, so no -0 survives
        for left, right in self.terms:
            # a left band writes its rows from its columns, a right band its columns from its rows
            lo, li = every if left is None else _span(left[0], n)
            ri, ro = every if right is None else _span(right[0], n)
            x = a[li, ri] if left is None else left[1][:, None] * a[li, ri]
            out[lo, ro] += x if right is None else x * right[1]
        return QuantumState(_frozen(out))

    @property
    def matrix(self) -> np.ndarray:
        n = self.cutoff
        mat = np.zeros((n * n, n * n), dtype=complex)
        for left, right in self.terms:
            mat += np.kron(_dense(left, n), _dense(right, n).T)
        return mat

    def dagger(self) -> "SuperOperator":
        """Adjoint with respect to the Hilbert-Schmidt inner product: terms (L^dag, R^dag), band k to -k."""
        return SuperOperator(self.cutoff, [tuple(None if side is None else (-side[0], side[1].conj()) for side in term)
                                           for term in self.terms])

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        if not isinstance(other, SuperOperator):
            return NotImplemented
        n = self.cutoff
        if other.cutoff != n:
            raise UsageError("cannot compose superoperators of different cutoffs")
        terms = [(_product(ls, lo, n), _product(ro, rs, n)) for ls, rs in self.terms for lo, ro in other.terms]
        terms = [t for t in terms if t[0] is not False and t[1] is not False]  # a band past the block is zero
        return SuperOperator(n, terms or [((0, np.zeros(n)), None)])

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        if not isinstance(other, SuperOperator):
            return NotImplemented
        if other.cutoff != self.cutoff:
            raise UsageError("cannot add superoperators of different cutoffs")
        return SuperOperator(self.cutoff, self.terms + other.terms)

    def __sub__(self, other: "SuperOperator") -> "SuperOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "SuperOperator":
        # the scalar scales the left side, and an identity left side becomes the constant band: (c psi) R
        # rounds as the dense (c I) psi R did, which keeps the bits of Lz and the ladders
        scalar, n = complex(scalar), self.cutoff
        return SuperOperator(n, [((0, np.full(n, scalar)) if left is None else (left[0], scalar * left[1]), right)
                                 for left, right in self.terms])

    __rmul__ = __mul__

    def __repr__(self):
        return f"SuperOperator(cutoff={self.cutoff}, terms={len(self.terms)})"


def _bands(mat: np.ndarray) -> list:
    """The nonzero bands of an N x N matrix as SuperOperator sides (k, np.diagonal(mat, k)), k ascending."""
    rows, cols = np.nonzero(mat)
    # the offsets by bincount, not np.unique, whose first call in a process takes about 15 ms
    offsets = np.flatnonzero(np.bincount(cols - rows + len(mat))) - len(mat)
    bands = [(k, np.diagonal(mat, k)) for k in offsets.tolist()]
    return [(k, w if w.imag.any() else w.real) for k, w in bands]


@lru_cache(maxsize=256)
def _span(k: int, n: int) -> tuple[slice, slice]:
    """The rows and the columns of an N x N matrix that band k occupies."""
    return slice(max(-k, 0), n - max(k, 0)), slice(max(k, 0), n - max(-k, 0))


def _dense(side, n: int) -> np.ndarray:
    """The N x N matrix of a band side; None is the identity."""
    return np.eye(n) if side is None else np.diag(side[1], side[0])


def _product(a, b, n: int):
    """The band side a b, read off the product of the dense sides, or False past the N x N block."""
    if a is None or b is None:
        return b if a is None else a
    k = a[0] + b[0]
    return (k, np.diagonal(_dense(a, n) @ _dense(b, n), k)) if abs(k) < n else False


def support_weight(psi: QuantumState, m: int) -> float:
    """Fraction of the state's weight on Fock levels >= m (row or column index).

    0 means the state is fully supported below level m; the truncation-safety
    gauge used by every algebraic-identity precondition.
    """
    n = psi.cutoff
    if not (0 <= m <= n):
        raise UsageError(f"level index must satisfy 0 <= m <= {n}, got {m}")
    if psi.norm_sq == 0.0:
        raise UsageError("support_weight of the zero state is undefined")
    if m == n:
        return 0.0
    abs_sq = np.abs(psi.op) ** 2
    tail = abs_sq[m:, :].sum() + abs_sq[:m, m:].sum()
    return float(tail / psi.norm_sq)
