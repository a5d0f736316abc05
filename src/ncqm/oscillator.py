"""Exact solution of the non-commutative harmonic oscillator.

Everything here is closed-form: the Bogoliubov frequencies lambda_1 >= lambda_2, the
ground-state decay exponent alpha, the 4x4 symplectic diagonalization, the ladder
superoperators, the spectrum E(n1, n2) and its states, Meixner functions on one diagonal,
and the ground-state position density.  The truncated numerical modules are checked on it.

Closed forms are written in cancellation-free shape: with R = sqrt(4 hbar^2 +
m^2 w^2 th^2),

    lambda_1 = m w (R + m w th) / 2
    lambda_2 = 2 hbar^2 m w / (R + m w th)          (= lambda_1 - m^2 w^2 th)
    e^alpha  = (R - m w th) / (R + m w th)          (= 1 - th lambda_2 / hbar^2)

The naive difference forms lose every digit by w ~ 1e6; these do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConsistencyError,
    DegenerateOscillatorError,
    FockContext,
    ModelParams,
    NumericalError,
    QuantumState,
    SuperOperator,
    TruncationError,
    UsageError,
)

__all__ = [
    "lambdas",
    "alpha",
    "k_norms",
    "energy",
    "ground_probability",
    "BogoliubovResult",
    "bogoliubov_transform",
    "ladder_ops",
    "ground_state",
    "excited_state",
    "ground_tail_weight",
]

_TAIL_MAX = 1e-3  # ground_state's largest admitted weight on the top retained level


def _radical(params: ModelParams) -> float:
    # sqrt(4 hbar^2 + m^2 w^2 theta^2) without overflow
    return math.hypot(2.0 * params.hbar, params.mass * params.omega * params.theta)


def lambdas(params: ModelParams) -> tuple[float, float]:
    """The two Bogoliubov frequencies, lambda_1 >= lambda_2 > 0.

    Satisfy lambda_1 - lambda_2 = m^2 w^2 theta and lambda_1 lambda_2 = hbar^2 m^2 w^2
    exactly.  Raises DegenerateOscillatorError at omega = 0.
    """
    if params.omega <= 0.0:
        raise DegenerateOscillatorError("lambdas need omega > 0; omega = 0 is the free particle")
    mw = params.mass * params.omega
    big = _radical(params) + mw * params.theta
    lam1 = 0.5 * mw * big
    lam2 = 2.0 * params.hbar**2 * mw / big
    return lam1, lam2


def alpha(params: ModelParams) -> float:
    """Ground-state exponent: psi_0 = e^{alpha b^dag b} with e^alpha = 1 - theta lambda_2 / hbar^2.

    The same alpha must solve e^{-alpha} = 1 + theta lambda_1 / hbar^2, and the
    value returned is -log1p(theta lambda_1 / hbar^2): lambda_1 is built without
    cancellation, so this form keeps full relative accuracy from alpha ~ -theta
    (commutative regime) out to alpha ~ -2 ln(m w theta / hbar) (confining
    regime).  It is cross-checked against 2(ln 2 hbar - ln(R + m w theta)),
    which is the e^{alpha} form with the catastrophic R - m w theta subtraction
    rewritten away via (R - m w theta)(R + m w theta) = 4 hbar^2; that form
    still loses relative precision as alpha -> 0 (difference of two O(1) logs),
    so agreement is required to 1e-12 with an absolute floor, not purely
    relative.  Disagreement raises ConsistencyError.  alpha <= 0, with equality
    only at theta = 0.
    """
    lam1, _ = lambdas(params)
    mwt = params.mass * params.omega * params.theta
    rad = _radical(params)
    a = -math.log1p(params.theta * lam1 / params.hbar**2)
    a_check = 2.0 * (math.log(2.0 * params.hbar) - math.log(rad + mwt))
    # absolute floor at the roundoff of the individual logs, relative beyond
    floor = 1e-13 * max(1.0, abs(math.log(2.0 * params.hbar)), abs(math.log(rad + mwt)))
    if abs(a - a_check) > max(1e-12 * abs(a), floor):
        raise ConsistencyError(f"alpha closed forms disagree: {a_check!r} vs {a!r}")
    return a


def k_norms(params: ModelParams) -> tuple[float, float]:
    """Ladder normalizers K_1 = lambda_1(2 lambda_1 theta/hbar^2 + 4), K_2 = lambda_2(4 - 2 lambda_2 theta/hbar^2)."""
    lam1, lam2 = lambdas(params)
    h2 = params.hbar**2
    k1 = lam1 * (2.0 * lam1 * params.theta / h2 + 4.0)
    k2 = lam2 * (4.0 - 2.0 * lam2 * params.theta / h2)
    return k1, k2


def energy(params: ModelParams, n1: int, n2: int) -> float:
    """E(n1, n2) = (lambda_1 (2 n1 + 1) + lambda_2 (2 n2 + 1)) / 2m."""
    if n1 < 0 or n2 < 0 or int(n1) != n1 or int(n2) != n2:
        raise UsageError(f"quantum numbers must be non-negative integers, got ({n1}, {n2})")
    lam1, lam2 = lambdas(params)
    return (lam1 * (2 * n1 + 1) + lam2 * (2 * n2 + 1)) / (2.0 * params.mass)


def ground_probability(params: ModelParams, z: complex) -> float:
    """Closed-form ground-state position density at dimensionless z = (x1 + i x2)/sqrt(2 theta).

    P(z) = ((2s - s^2) / 2 pi theta) exp((s^2 - 2s)|z|^2) with s = theta lambda_2 / hbar^2.
    The prefactor comes from the Gaussian integral with measure dx1 dx2 = 2 theta d^2z,
    so the density integrates to exactly one over the plane.
    """
    if params.theta <= 0.0:
        raise UsageError(
            "ground_probability needs theta > 0 (z is dimensionless in sqrt(2 theta) units); "
            "the commutative limit is the ordinary Gaussian exp(-m w r^2 / hbar) m w / pi hbar"
        )
    _, lam2 = lambdas(params)
    s = params.theta * lam2 / params.hbar**2
    width = 2.0 * s - s * s
    return width / (2.0 * math.pi * params.theta) * math.exp(-width * abs(z) ** 2)


@dataclass(frozen=True)
class BogoliubovResult:
    """The 4x4 symplectic data diagonalizing the quadratic Hamiltonian.

    g is the commutator Gram matrix of Z = (m w X1, m w X2, P1, P2); S satisfies
    S g S^dag = D = diag(1, -1, 1, -1); eigenvalues are the eigh eigenvalues of g
    ascending, (-l1, -l2, l2, l1).  residual is max |S g S^dag - D|.
    """

    g: np.ndarray
    S: np.ndarray
    D: np.ndarray
    eigenvalues: np.ndarray
    lambda1: float
    lambda2: float
    residual: float


def bogoliubov_transform(params: ModelParams) -> BogoliubovResult:
    """Build g, diagonalize, and assemble the transformation S.

    S^dag columns are the eigenvectors of g scaled by 1/sqrt(eigenvalue); they
    are taken in closed form from the ladder coefficient rows, which stays
    deterministic through the degenerate commutative limit (a numerical
    eigensolver can mix the lambda_1 = lambda_2 pair there).  The eigensolver
    runs anyway as a cross-check on the eigenvalues; disagreement beyond 1e-12
    relative raises NumericalError.
    """
    hbar, m, w, th = params.hbar, params.mass, params.omega, params.theta
    lam1, lam2 = lambdas(params)
    k1, k2 = k_norms(params)

    hmw = hbar * m * w
    m2w2t = m * m * w * w * th
    g = np.array(
        [
            [0.0, 1j * m2w2t, 1j * hmw, 0.0],
            [-1j * m2w2t, 0.0, 0.0, 1j * hmw],
            [-1j * hmw, 0.0, 0.0, 0.0],
            [0.0, -1j * hmw, 0.0, 0.0],
        ],
        dtype=complex,
    )

    # ladder coefficient rows in the Z = (m w X1, m w X2, P1, P2) basis
    r1 = np.array([-lam1 / hmw, -1j * lam1 / hmw, -1j, 1.0], dtype=complex) / math.sqrt(k1)
    r2 = np.array([lam2 / hmw, -1j * lam2 / hmw, 1j, 1.0], dtype=complex) / math.sqrt(k2)
    s_mat = np.vstack([r1, r1.conj(), r2, r2.conj()])
    d_mat = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)

    residual = float(np.max(np.abs(s_mat @ g @ s_mat.conj().T - d_mat)))
    scale = max(1.0, float(np.max(np.abs(g))))
    if residual > 1e-12 * scale:
        raise NumericalError(f"S g S^dag misses D by {residual:.3e}")

    # closed-form columns must be eigenvectors of g with eigenvalues +-lambda
    sdag = s_mat.conj().T
    expected = np.array([lam1, -lam1, lam2, -lam2])
    eig_defect = float(np.max(np.abs(g @ sdag - sdag * expected[None, :])))
    if eig_defect > 1e-12 * scale:
        raise NumericalError(f"transformation columns miss the eigenvector property by {eig_defect:.3e}")

    eigenvalues = np.linalg.eigvalsh(g)
    target = np.sort(np.array([-lam1, -lam2, lam2, lam1]))
    if np.max(np.abs(eigenvalues - target)) > 1e-12 * max(lam1, 1.0):
        raise NumericalError(
            f"eigensolver eigenvalues {eigenvalues} disagree with closed forms {target}"
        )

    return BogoliubovResult(
        g=g,
        S=s_mat,
        D=d_mat,
        eigenvalues=eigenvalues,
        lambda1=lam1,
        lambda2=lam2,
        residual=residual,
    )


def _ladder_coeffs(params: ModelParams) -> tuple[float, float, float, float]:
    """(a1, c1, a2, c2) with A1dag psi = a1 b^dag psi + c1 psi b^dag and A2dag psi = a2 b psi + c2 psi b."""
    lam1, lam2 = lambdas(params)
    k1, k2 = k_norms(params)
    h_th = params.hbar / params.theta
    s1, s2 = math.sqrt(2.0 * params.theta / k1), math.sqrt(2.0 * params.theta / k2)
    return -s1 * (lam1 / params.hbar + h_th), s1 * h_th, s2 * (lam2 / params.hbar - h_th), s2 * h_th


def ladder_ops(ctx: FockContext) -> tuple[SuperOperator, SuperOperator, SuperOperator, SuperOperator]:
    """The oscillator ladder superoperators (A1, A1dag, A2, A2dag), two terms each.

    A1 = (-(l1/hbar) X1 - i(l1/hbar) X2 - i P1 + P2) / sqrt(K1) and
    A2 = ((l2/hbar) X1 - i(l2/hbar) X2 + i P1 + P2) / sqrt(K2), the daggers conjugated.
    As x1 -+ i x2 = sqrt(2 theta) b^dag, b holds exactly for the truncated b,

    A1dag psi = -sqrt(2 th/K1) ((l1/hbar + hbar/th) b^dag psi - (hbar/th) psi b^dag)
    A2dag psi =  sqrt(2 th/K2) ((l2/hbar - hbar/th) b psi + (hbar/th) psi b)

    and A1, A2 exchange b and b^dag.  A1 psi_0 = A2 psi_0 = 0 exactly for
    psi_0 = e^{alpha b^dag b}, and [A_i, A_j^dag] = delta_ij on supported states.
    """
    a1, c1, a2, c2 = _ladder_coeffs(ctx.params)
    n, w = ctx.cutoff, ctx.root  # b is the band (1, w), b^dag the band (-1, w)
    return tuple(a * SuperOperator(n, [(band, None)]) + c * SuperOperator(n, [(None, band)])
                 for a, c, band in ((a1, c1, (1, w)), (a1, c1, (-1, w)), (a2, c2, (-1, w)), (a2, c2, (1, w))))


def ground_tail_weight(params: ModelParams) -> float:
    """Normalized weight of the ground state on the top retained Fock level.

    w = e^{2 alpha (N-1)} expm1(2 alpha) / expm1(2 alpha N), which tends to 1/N
    as theta -> 0; the truncation-adequacy gauge for ground_state/excited_state.
    """
    a = alpha(params)
    n = params.cutoff
    if a == 0.0:
        return 1.0 / n
    return math.exp(2.0 * a * (n - 1)) * math.expm1(2.0 * a) / math.expm1(2.0 * a * n)


def ground_state(ctx: FockContext) -> QuantumState:
    """The normalized ground state psi_0 = e^{alpha b^dag b} as a diagonal matrix.

    Raises TruncationError when the top-level weight exceeds T = _TAIL_MAX (at
    theta = 0.1 this admits cutoffs N >= 28).  The message names the least
    cutoff that passes, N - 1 >= log(T / (T e^{2 alpha} - expm1(2 alpha))) / (2 alpha).
    """
    a = alpha(ctx.params)
    w = ground_tail_weight(ctx.params)
    if w > _TAIL_MAX:
        needed = 1
        if a < 0.0:  # the bound above, with log(T / (T e^{2a} - expm1(2a))) = -log1p(x)
            x = (_TAIL_MAX - 1.0) * math.expm1(2.0 * a) / _TAIL_MAX
            needed = math.ceil(-math.log1p(x) / (2.0 * a)) + 1
        raise TruncationError(
            f"ground-state tail weight {w:.3e} exceeds {_TAIL_MAX:.1e} at cutoff "
            f"{ctx.params.cutoff}; need N >= {needed}"
        )
    diag = np.exp(a * np.arange(ctx.params.cutoff))
    return QuantumState(np.diag(diag / np.linalg.norm(diag)).astype(complex))


def excited_state(ctx: FockContext, n1: int, n2: int) -> QuantumState:
    """Normalized (A1dag)^n1 (A2dag)^n2 psi_0, a Meixner function on the diagonal m - l = k = n1 - n2.

    With c = e^{2 alpha}, beta = |k| + 1 and j = min(n1, n2), its entry at place l = min(m, l) is
    (-1)^max(k, 0) u_l, u_l = sqrt((beta)_l c^l / l!) M_j(l; beta, c) (Koekoek, Lesky and Swarttouw,
    section 9.10), and b_l u_{l+1} = a_l u_l - b_{l-1} u_{l-1} with a_l = l + (l + beta) c - j (1 - c)
    and b_l = sqrt((l + 1)(l + beta) c).  This runs up from u_0 = 1; if u starts to decay at a place p
    inside the block (a_l > b_l + b_{l-1} from p on), it runs down to p from 40/|alpha| places past the block.
    Besides ground_state's tail check, TruncationError refuses a diagonal that misses the block, and a
    block whose share of sum u_l^2 = c^-j j! / ((beta)_j (1 - c)^beta) is not a normal double.
    """
    if n1 < 0 or n2 < 0 or int(n1) != n1 or int(n2) != n2:
        raise UsageError(f"quantum numbers must be non-negative integers, got ({n1}, {n2})")
    psi0 = ground_state(ctx)
    if n1 == 0 and n2 == 0:
        return psi0

    n, k = ctx.params.cutoff, n1 - n2
    if abs(k) >= n:
        raise TruncationError(f"excited state ({n1}, {n2}) lies on the diagonal m - l = {k}, "
                              f"outside the block; the cutoff N = {n} must exceed |n1 - n2|")
    a = alpha(ctx.params)
    j, beta, size, c = min(n1, n2), abs(k) + 1, n - abs(k), math.exp(2.0 * a)
    for l in (np.arange(float(math.ceil(size - reach / a))) for reach in (0.0, 40.0)):  # the block first
        diag, off = l + (l + beta) * c + j * math.expm1(2.0 * a), np.sqrt((l + 1.0) * (l + beta) * c)
        inside = np.flatnonzero(diag <= off + np.append(0.0, off[:-1]))  # an interval: a_l - b_l - b_{l-1} is convex
        q = min(inside[-1] + 1 if inside.size else size, size - 1)  # none: the block is below the lower turning point
        if q == size - 1:  # u does not decay inside the block, where |alpha| may be tiny: the downward sweep is empty
            break  # else the block holds the upper turning point, so |alpha| >~ 1/N and 40/|alpha| places are O(N)
    u = []  # the downward sweep, to q from the last place, then the upward, from u_0 = 1 to q
    for d_run, b_run in ((diag[:q:-1], off[q:-1][::-1]), (diag[:q], off)):
        down, u, shift = u, [0.0, 1.0], 0  # u_{L+1} = 0, and u_{-1} = 0
        for d, back, fwd in zip(d_run.tolist(), [0.0] + b_run.tolist(), b_run.tolist()):
            u.append((d * u[-1] - back * u[-2]) / fwd)
            if abs(u[-1]) > 2.0**300:  # u / 2^shift stays finite; entries 2^-774 below the newest underflow
                u, shift = [x * 2.0**-300 for x in u], shift + 300
    u = np.append(u[1:q + 1], np.array(down[:0:-1]) * (u[q + 1] / down[-1]))[:size]
    share = math.exp(2.0 * (math.log(np.linalg.norm(u)) + shift * math.log(2.0) + a * j) - math.lgamma(j + 1.0)
                     + math.lgamma(j + beta) - math.lgamma(beta) + beta * math.log(-math.expm1(2.0 * a)))
    if not share >= np.finfo(float).tiny:
        raise TruncationError(f"excited state ({n1}, {n2}) has no weight in the {n} x {n} block that a "
                              "float can hold; raise the cutoff")
    return QuantumState(np.diag((-1.0) ** max(k, 0) / np.linalg.norm(u) * u, -k).astype(complex))
