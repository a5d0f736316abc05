"""Coherent states, state symbols, the position POVM, and measurement updates.

Position statistics come from the coherent-state POVM.  With the symbol
f(z) = <z|psi|z>, the paper's density at dimensionless z = (x1 + i x2)/sqrt(2 theta),

    P(z) = (1 / 2 pi theta) sum_k (1/k!) |d^k f / dz^k|^2,

resums to the closed form

    P(z) = <z| psi psi^dag |z> / (2 pi theta) = ||psi^dag |z>||^2 / (2 pi theta),

so the POVM element pi_z is left multiplication by |z><z| / (2 pi theta).  The
identity is exact at any cutoff: psi psi^dag lives in the N x N block, so only
the first N Fock components of |z> enter.  Densities, grids, the POVM matrix,
the measurement update and the identity quadrature are all short products with
the truncated coherent vector.  For a psi on one diagonal m - l = d, as the
oscillator's states are, psi psi^dag is exactly diagonal and the density is
the radial sum sum_m |psi_m,m-d|^2 |g_m(|z|)|^2 / (2 pi theta) (_densities).

The derivative series itself is kept as an independent oracle,
density_series, built on the exact symbol calculus (symbol, deriv_z,
deriv_zbar); the povm check suite and the tests compare the two paths.

Everything is evaluated in the scaled basis g_a(z) = z^a e^{-|z|^2/2}/sqrt(a!),
generated by a stable recurrence with |g_a| <= 1, so no factorials are ever
formed explicitly and cutoffs of several hundred levels stay finite.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    FockContext,
    MeasurementImpossibleError,
    NumericalError,
    QuantumState,
    TruncationError,
    UsageError,
    _unit_offsets,
)

__all__ = [
    "TruncationWarning",
    "coherent_vector",
    "coherent_tail",
    "coherent_state_op",
    "StateSymbol",
    "symbol",
    "deriv_z",
    "deriv_zbar",
    "density_series",
    "position_probability",
    "GridSpec",
    "ProbabilityGrid",
    "probability_grid",
    "povm_matrix",
    "post_measurement",
    "povm_identity_residual",
]

_EPS = float(np.finfo(float).eps)
_SERIES_TERMS = 200  # density_series gives up past this many terms
_BLOCK = 1 << 16  # coherent-basis entries per block: 1 MiB complex, so a grid's temporaries stay near 1 MB


class TruncationWarning(UserWarning):
    """The requested point lies outside the cutoff's trustworthy phase-space region."""


def coherent_vector(cutoff: int, z: complex) -> np.ndarray:
    """Fock components <n|z> = e^{-|z|^2/2} z^n / sqrt(n!), by stable recurrence."""
    return _coherent_basis(np.array([complex(z)]), cutoff)[0]


def coherent_tail(z: complex, level: int) -> float:
    """Weight of |z> on Fock levels >= level: the Poisson(|z|^2) upper tail.

    For mu = |z|^2 <= level the positive terms are summed upward from k = level
    until they fall below 1e-17 of the sum; above it the tail is at least about
    1/2, so it is 1 minus the lower sum over k < level, summed downward from
    its largest term.  Underflows to 0 far below 1e-280.  A z whose |z|^2 is
    not a finite float (|z| from about 1.34e154, or NaN) raises NumericalError.
    """
    if level <= 0:
        return 1.0
    r = abs(complex(z))
    if not math.isfinite(r * r):
        raise NumericalError(f"|z|^2 is not a finite float at z = {z}")
    mu = r**2
    if mu == 0.0:
        return 0.0
    if mu <= level:
        term = math.exp(level * math.log(mu) - mu - math.lgamma(level + 1))
        total, k = term, level
        while term > 1e-17 * total:
            k += 1
            term *= mu / k
            total += term
        return total
    term = math.exp((level - 1) * math.log(mu) - mu - math.lgamma(level))
    lower = term
    for k in range(level - 1, 0, -1):
        if term <= 1e-17 * lower:
            break
        term *= k / mu
        lower += term
    return 1.0 - lower


def coherent_state_op(ctx: FockContext, z: complex) -> QuantumState:
    """The rank-one state |z)(= |z><z|), normalized to hs_inner = 1 exactly.

    Raises TruncationError when |z> leaks weight above level N-3 beyond 1e-8,
    naming the least cutoff that passes: the tail falls as the level rises and
    is far above 1e-8 up to level |z|^2, so the search steps up from
    N = |z|^2 + 4; past |z|^2 = 1e4 (long tail sums) it names that bound.
    """
    n = ctx.cutoff
    tail = coherent_tail(z, n - 3)
    if tail >= 1e-8:
        mu = abs(complex(z)) ** 2
        need = int(mu) + 4
        while mu <= 1e4 and coherent_tail(z, need - 3) >= 1e-8:
            need += 1
        raise TruncationError(
            f"coherent state at z = {z} has weight {tail:.2e} above level {n - 3}; "
            f"raise the cutoff (|z|^2 = {mu:.3g} needs N >= {need:.6g})"
        )
    v = coherent_vector(n, z)
    op = np.outer(v, v.conj())
    return QuantumState(op / np.vdot(v, v).real)


@dataclass
class StateSymbol:
    """Coefficient table of a symbol f(z) = sum_ab table_ab conj(g_a(z)) g_b(z).

    For the symbol of a state psi the table is the matrix itself:
    f = e^{-|z|^2} sum_ab c_ab zbar^a z^b with c_ab = table_ab / sqrt(a! b!),
    i.e. f(z) = <z|psi|z>.  Derivatives grow the table by one row (d/dz raises
    the zbar degree) or one column (d/dzbar), staying exact polynomials times
    the Gaussian.
    """

    table: np.ndarray

    def eval(self, z: complex) -> complex:
        a_dim, b_dim = self.table.shape
        ga = coherent_vector(a_dim, z)
        gb = coherent_vector(b_dim, z)
        return complex(ga.conj() @ self.table @ gb)

    __call__ = eval


def symbol(psi: QuantumState) -> StateSymbol:
    return StateSymbol(np.array(psi.op, dtype=complex))


def _deriv_z_table(table: np.ndarray) -> np.ndarray:
    a_dim, b_dim = table.shape
    out = np.zeros((a_dim + 1, b_dim), dtype=complex)
    if b_dim > 1:
        out[:a_dim, : b_dim - 1] += table[:, 1:] * np.sqrt(np.arange(1, b_dim))[None, :]
    out[1 : a_dim + 1, :] -= np.sqrt(np.arange(1, a_dim + 1))[:, None] * table
    return out


def deriv_z(sym: StateSymbol) -> StateSymbol:
    """d/dz of the symbol: lowers the z degree and, through the Gaussian, raises zbar."""
    return StateSymbol(_deriv_z_table(sym.table))


def deriv_zbar(sym: StateSymbol) -> StateSymbol:
    """d/dzbar of the symbol; the mirror image of deriv_z."""
    return StateSymbol(_deriv_z_table(sym.table.T).T)


def _coherent_basis(zs: np.ndarray, count: int) -> np.ndarray:
    """Rows of g_a(z_p), a < count, by one cumprod of g_0 = e^{-|z|^2/2}, z/sqrt(1), z/sqrt(2), ...

    For real zs >= 0 (moduli |z|) the rows are the moduli |g_a(z)|, by the same recurrence.
    """
    out = np.empty((len(zs), count), dtype=np.result_type(zs, float))
    out[:, 0] = np.exp(-0.5 * np.abs(zs) ** 2)
    out[:, 1:] = zs[:, None] * (1.0 / np.sqrt(np.arange(1, count)))
    return np.cumprod(out, axis=1, out=out)


def _warn_if_unsafe(cutoff: int, z: complex) -> str | None:
    tail = coherent_tail(z, cutoff - 3)
    if tail >= 1e-8:
        return (
            f"point z = {z} is truncation-unsafe at cutoff {cutoff} "
            f"(coherent tail {tail:.2e} above level {cutoff - 3}; guideline |z|^2 <= N/3)"
        )
    return None


def density_series(ctx: FockContext, psi: QuantumState, z: complex) -> float:
    """Position density at z summed term by term from the paper's derivative series.

    The independent oracle for position_probability and povm_matrix: it never
    forms |z><z|.  Term k is |f_k(z)|^2 for the symbol chain f_0 = symbol(psi),
    f_k = deriv_z(f_{k-1}) / sqrt(k), so the terms are |d^k f/dz^k|^2 / k!.
    A term joins the sum only when it clears the roundoff floor, 16 eps times
    the absolute-value contraction sum_ab |g_a(z)| |f_k,ab| |g_b(z)| (the same
    table evaluated at |z|, since |g_a(z)| = g_a(|z|)): the chain coefficients
    grow combinatorially while the evaluated values cancel, and once a value
    cancels down to the floor it is noise whose square would fabricate
    density.  The sum stops after three negligible terms in a row, but not
    before term k reaches the last nonzero entry of row 0 of psi: at z = 0
    term k is exactly |psi_0k|^2, and near it the leading terms underflow, so
    zero terms before then are not convergence.  A value known within sqrt(floor)
    puts its term within 2 sqrt(term floor) + floor, plus the term if dropped;
    raises ConvergenceError when these add up to more than 1e-8 of the sum (as
    for |0><79| at N = 80 and z = 2.2 + 1j, where cancellation swamps the
    density) or when the series does not settle within _SERIES_TERMS terms.
    """
    z = complex(z)
    row0 = np.flatnonzero(psi.op[0])
    last = row0[-1] if row0.size else 0
    sym = symbol(psi)
    total = error = 0.0
    below = 0
    for k in range(_SERIES_TERMS + 1):
        term = abs(sym(z)) ** 2
        floor = (16.0 * _EPS * abs(StateSymbol(np.abs(sym.table))(abs(z)))) ** 2
        error += 2.0 * math.sqrt(term * floor) + floor + (0.0 if term > floor else term)
        if term > floor:
            total += term
        below = below + 1 if term <= max(1e-14 * total, floor) else 0
        if below >= 3 and k >= last:
            if error > 1e-8 * total:
                raise ConvergenceError(f"density series at z = {z} cancels below roundoff "
                                       f"(error bound {error:.1e}, sum {total:.1e})")
            return total / (2.0 * math.pi * ctx.params.theta)
        sym = StateSymbol(deriv_z(sym).table / math.sqrt(k + 1))
    raise ConvergenceError(
        f"density series hit the {_SERIES_TERMS}-term cap at z = {z} unconverged (last term "
        f"{term:.3e}); the point likely sits far outside the cutoff's safe region"
    )


def _in_blocks(points: np.ndarray, n: int, reduce) -> np.ndarray:
    """reduce(_coherent_basis(block, n)) over blocks of points, each basis under _BLOCK entries."""
    step = max(1, _BLOCK // n)
    return np.concatenate([reduce(_coherent_basis(points[s : s + step], n))
                           for s in range(0, len(points), step)])


def _radial_densities(psi_op: np.ndarray, d: int, zs: np.ndarray) -> np.ndarray:
    """sum_m |psi_m,m-d|^2 |g_m(|z|)|^2 for a psi on the diagonal m - l = d."""
    n = psi_op.shape[0]
    vals = np.diagonal(psi_op, -d)  # psi_m,m-d for m in max(d, 0) .. n + min(d, 0) - 1
    w = np.zeros(n)
    w[max(d, 0) : n + min(d, 0)] = vals.real**2 + vals.imag**2
    radii, inv = np.unique(np.abs(zs), return_inverse=True)
    return _in_blocks(radii, n, lambda a: a**2 @ w)[inv]


def _projector_densities(psi_op: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """||psi^dag |z>||^2 at each point, as the rows of conj(g(z)) psi = g(conj z) psi."""

    def norms(basis):
        w = basis @ psi_op
        return np.sum(w.real**2 + w.imag**2, axis=1)

    return _in_blocks(zs.conj(), psi_op.shape[0], norms)


def _densities(psi_op: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """||psi^dag |z>||^2 at each point, by the radial sum when psi lies on one diagonal.

    If every nonzero psi_ml has the same m - l = d, each row holds one entry and
    the rows have disjoint supports, so psi psi^dag is exactly diagonal and the
    density depends on |z| alone; it is evaluated once per distinct radius.  The
    route reads the exact zeros of psi, with no tolerance.
    """
    d = _unit_offsets(psi_op.shape[0])[psi_op != 0]
    if np.all(d == d[:1]):  # the zero state too: d is empty, and any diagonal reads zeros
        return _radial_densities(psi_op, int(d[0]) if d.size else 0, zs)
    return _projector_densities(psi_op, zs)


def position_probability(ctx: FockContext, psi: QuantumState, z: complex) -> float:
    """Position probability density of a normalized state at dimensionless z.

    Nonnegative by construction (a squared norm).  Points outside the cutoff's
    safe region emit TruncationWarning.
    """
    z = complex(z)
    msg = _warn_if_unsafe(ctx.cutoff, z)
    if msg is not None:
        warnings.warn(msg, TruncationWarning, stacklevel=2)
    total = _densities(np.asarray(psi.op), np.array([z]))
    return float(total[0] / (2.0 * math.pi * ctx.params.theta))


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid in the dimensionful coordinates (x1, x2)."""

    x1_range: tuple[float, float]
    x2_range: tuple[float, float]
    points: tuple[int, int] = (61, 61)

    def __post_init__(self):
        if self.points[0] < 2 or self.points[1] < 2:
            raise UsageError(f"grid needs at least 2 points per axis, got {self.points}")
        if not (self.x1_range[0] < self.x1_range[1] and self.x2_range[0] < self.x2_range[1]):
            raise UsageError("grid ranges must be increasing (lo, hi) pairs")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x1_range[0], self.x1_range[1], self.points[0]),
            np.linspace(self.x2_range[0], self.x2_range[1], self.points[1]),
        )


@dataclass(frozen=True)
class ProbabilityGrid:
    """Evaluated density grid; values[i, j] = P(x1[i], x2[j]), all >= 0.

    normalization_estimate is the trapezoid quadrature of the grid, near 1 for
    a normalized state when the grid covers it; warnings records grid points
    outside the truncation-safe region (data is still emitted for them).
    """

    x1: np.ndarray
    x2: np.ndarray
    values: np.ndarray
    normalization_estimate: float
    warnings: tuple[str, ...] = ()


def probability_grid(ctx: FockContext, psi: QuantumState, grid: GridSpec) -> ProbabilityGrid:
    """Evaluate the position density over a grid; embarrassingly parallel over points.

    z = (x1 + i x2)/sqrt(2 theta) per point; see _densities for the two routes.
    """
    x1, x2 = grid.axes()
    theta = ctx.params.theta
    zs = ((x1[:, None] + 1j * x2[None, :]) / math.sqrt(2.0 * theta)).reshape(-1)

    notes = []
    radii = np.abs(zs)
    worst = zs[np.argmax(radii)]
    msg = _warn_if_unsafe(ctx.cutoff, worst)
    if msg is not None:
        # the largest radius fails the check and the tail grows with |z|, so bisect the
        # sorted radii for the first that fails (a plain np.unique would import numpy.ma)
        ordered = np.sort(radii)
        first = bisect.bisect_left(ordered, True, hi=len(ordered) - 1,
                                   key=lambda r: _warn_if_unsafe(ctx.cutoff, r) is not None)
        notes.append(f"{len(zs) - first} of {len(zs)} grid points truncation-unsafe; worst: {msg}")

    total = _densities(np.asarray(psi.op), zs)
    values = (total / (2.0 * math.pi * theta)).reshape(grid.points)
    norm_est = float(np.trapezoid(np.trapezoid(values, x2, axis=1), x1))
    return ProbabilityGrid(
        x1=x1,
        x2=x2,
        values=values,
        normalization_estimate=norm_est,
        warnings=tuple(notes),
    )


def povm_matrix(ctx: FockContext, z: complex) -> np.ndarray:
    """The POVM element pi_z as a dense Hermitian PSD matrix on the state space.

    Left multiplication by |z><z| / (2 pi theta), i.e. kron(v v^dag, I) under
    the vec convention, with v the truncated coherent vector; PSD by
    construction.  Entry (a N + i, b N + j) is v_a conj(v_b) delta_ij / (2 pi theta),
    written onto the i = j diagonals of one zeroed array.
    """
    n = ctx.cutoff
    v = coherent_vector(n, z)
    out = np.zeros((n * n, n * n), dtype=complex)
    d = np.arange(n)
    out.reshape(n, n, n, n)[:, d, :, d] = np.outer(v, v.conj()) / (2.0 * math.pi * ctx.params.theta)
    return out


def post_measurement(ctx: FockContext, psi: QuantumState, z: complex) -> QuantumState:
    """State after detecting the particle at z: sqrt(pi_z) psi, renormalized.

    Uses the unique PSD square root (the detection operator is fixed only up to
    a unitary; identity is the canonical choice).  Since sqrt(v v^dag) =
    v v^dag / ||v||, the update is the normalized |v>(v^dag psi).  Raises
    MeasurementImpossibleError when the detection probability
    ||v^dag psi||^2 / (2 pi theta) is below 1e-14.
    """
    v = coherent_vector(ctx.cutoff, z)
    row = v.conj() @ np.asarray(psi.op)
    prob = float(np.vdot(row, row).real) / (2.0 * math.pi * ctx.params.theta)
    if prob < 1e-14:
        raise MeasurementImpossibleError(
            f"detection probability {prob:.3e} at z = {z} is numerically zero"
        )
    phi = np.outer(v, row)
    return QuantumState(phi / np.linalg.norm(phi))


def povm_identity_residual(
    ctx: FockContext, extent: float, points: int = 61, span: int = 5
) -> float:
    """Operator residual of the resolution of identity on a low-level subspace.

    Quadrature of pi_z dx1 dx2 over the square [-extent, extent]^2, restricted
    to the span of matrix units |m><n| with m, n < span, compared to the
    identity there.  pi_z acts there as kron(|z><z|, I) / (2 pi theta) and
    ||kron(A - I, I)||_2 = ||A - I||_2, so the span x span quadrature of
    |z><z| / (2 pi theta) gives the same residual.  Limited by quadrature
    extent/step, not by the POVM itself.  A NaN or inf extent, or one whose
    cell area or largest |z|^2 overflows, is a UsageError.
    """
    if points < 2 or not (1 <= span <= ctx.cutoff) or not math.isfinite(extent):
        raise UsageError(f"need points >= 2, span in 1 .. {ctx.cutoff} and a finite extent, "
                         f"got points {points}, span {span}, extent {extent}")
    theta = ctx.params.theta
    step = 2.0 * extent / (points - 1)
    if not (math.isfinite(step * step) and math.isfinite(extent * extent / theta)):
        raise UsageError(f"extent {extent} is too large: the quadrature's cell area or its largest "
                         f"|z|^2 = extent^2 / theta is not a finite float")
    xs = np.linspace(-extent, extent, points)
    w1 = np.full(points, xs[1] - xs[0])
    w1[0] *= 0.5
    w1[-1] *= 0.5

    zs = ((xs[:, None] + 1j * xs[None, :]) / math.sqrt(2.0 * theta)).reshape(-1)
    weights = np.outer(w1, w1).reshape(-1)
    vs = _coherent_basis(zs, span)
    acc = (vs.T * weights) @ vs.conj() / (2.0 * math.pi * theta)
    return float(np.linalg.norm(acc - np.eye(span), 2))
