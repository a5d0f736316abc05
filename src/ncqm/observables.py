"""Positions, momenta, angular momentum, rotations, and time reversal as maps on states.

Positions act by left multiplication, momenta adjointly:

    X_i psi = x_i psi,   P_1 psi = (hbar/theta)[x_2, psi],   P_2 psi = -(hbar/theta)[x_1, psi].

Angular momentum is the commutator with the (truncated) x1^2 + x2^2, which is
diagonal in the Fock basis; rotations therefore act by exact phases and time
reversal is the conjugate transpose (anti-linear, never materialized).
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigurationError, FockContext, QuantumState, SuperOperator, _unit_offsets

__all__ = [
    "position_ops",
    "momentum_ops",
    "angular_momentum",
    "rotate",
    "time_reverse",
    "time_reverse_conjugate",
]


def _x_bands(ctx: FockContext) -> tuple[list, list]:
    """The bands [(-1, w), (1, w)] of x1 and x2 from root, in the bits np.diagonal reads off dense x1 and x2."""
    s, root = np.sqrt(ctx.params.theta / 2.0), ctx.root  # x2's +1 band is i s (bdag - b): -sqrt(l) - 0j times i s
    return [(-1, s * root), (1, s * root)], [(-1, 1j * s * root), (1, 1j * s * (0j - root).conj())]


def _commutator_action(n: int, bands: list) -> SuperOperator:
    """psi -> [op, psi] from the bands of op: each on the left, and negated on the right."""
    return SuperOperator(n, [(band, None) for band in bands] + [(None, (k, -w)) for k, w in bands])


def position_ops(ctx: FockContext) -> tuple[SuperOperator, SuperOperator]:
    return tuple(SuperOperator(ctx.cutoff, [(band, None) for band in x]) for x in _x_bands(ctx))


def momentum_ops(ctx: FockContext) -> tuple[SuperOperator, SuperOperator]:
    """(P1, P2); ConfigurationError where the scale hbar/theta has no finite square, which P^2 forms."""
    p = ctx.params
    c, (x1, x2) = p.hbar / p.theta, _x_bands(ctx)
    if not math.isfinite(c * c):
        raise ConfigurationError(f"the momentum scale hbar/theta = {c!r} has no finite square at theta = "
                                 f"{p.theta!r}, hbar = {p.hbar!r}")
    return c * _commutator_action(ctx.cutoff, x2), -c * _commutator_action(ctx.cutoff, x1)


def angular_momentum(ctx: FockContext) -> SuperOperator:
    """psi -> -(hbar/2 theta)[x1^2 + x2^2, psi], with truncated operator products.

    On matrix units below the top level this is hbar(n - m)|m><n|; the top
    Fock row and column see the truncation defect of x^2 (the composed form
    X1 P2 - X2 P1 + (theta/2 hbar) P^2 carries exactly the same defect, and the
    two constructions agree identically; see the tests).
    """
    c = -ctx.params.hbar / (2.0 * ctx.params.theta)
    return c * _commutator_action(ctx.cutoff, [(0, ctx.r_sq_diag)])


def rotate(psi: QuantumState, phi: float) -> QuantumState:
    """Rotate a state by angle phi: U^dag psi U with U = exp(-i phi (b^dag b + 1/2)).

    U is diagonal in the Fock basis, so the action is the exact phase table
    psi_mn -> exp(i phi (m - n)) psi_mn; the half-integer shifts cancel and the
    norm is preserved exactly.
    """
    return QuantumState(np.exp(1j * phi * _unit_offsets(psi.cutoff)) * psi.op)


def time_reverse(psi: QuantumState) -> QuantumState:
    """Anti-linear time reversal: psi -> psi^dag."""
    return psi.dagger()


def time_reverse_conjugate(s: SuperOperator) -> SuperOperator:
    """The linear map Theta S Theta^{-1}, computed termwise.

    Theta(sum_t L_t psi^dag R_t)^, applied to psi, equals sum_t R_t^dag psi L_t^dag,
    so conjugation swaps the sides of each term of S^dag.  Anti-linear Theta itself
    has no matrix form; this is the only materializable combination.
    """
    return SuperOperator(s.cutoff, [(right, left) for left, right in s.dagger().terms])
