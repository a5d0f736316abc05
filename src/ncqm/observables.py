"""Positions, momenta, angular momentum, rotations, and time reversal as maps on states.

Positions act by left multiplication, momenta adjointly:

    X_i psi = x_i psi,   P_1 psi = (hbar/theta)[x_2, psi],   P_2 psi = -(hbar/theta)[x_1, psi].

Angular momentum is the commutator with the (truncated) x1^2 + x2^2, which is
diagonal in the Fock basis; rotations therefore act by exact phases and time
reversal is the conjugate transpose (anti-linear, never materialized).
"""

from __future__ import annotations

import numpy as np

from .core import FockContext, QuantumState, SuperOperator, _unit_offsets

__all__ = [
    "position_ops",
    "momentum_ops",
    "angular_momentum",
    "rotate",
    "time_reverse",
    "time_reverse_conjugate",
]


def _left_mult(op: np.ndarray) -> SuperOperator:
    eye = np.eye(op.shape[0], dtype=complex)
    return SuperOperator([(op, eye)])


def _commutator_action(op: np.ndarray) -> SuperOperator:
    """psi -> [op, psi] as a two-term superoperator."""
    eye = np.eye(op.shape[0], dtype=complex)
    return SuperOperator([(op, eye), (-eye, op)])


def position_ops(ctx: FockContext) -> tuple[SuperOperator, SuperOperator]:
    return _left_mult(ctx.x1), _left_mult(ctx.x2)


def momentum_ops(ctx: FockContext) -> tuple[SuperOperator, SuperOperator]:
    c = ctx.params.hbar / ctx.params.theta
    return c * _commutator_action(ctx.x2), -c * _commutator_action(ctx.x1)


def angular_momentum(ctx: FockContext) -> SuperOperator:
    """psi -> -(hbar/2 theta)[x1^2 + x2^2, psi], with truncated operator products.

    On matrix units below the top level this is hbar(n - m)|m><n|; the top
    Fock row and column see the truncation defect of x^2 (the composed form
    X1 P2 - X2 P1 + (theta/2 hbar) P^2 carries exactly the same defect, and the
    two constructions agree identically; see the tests).
    """
    c = -ctx.params.hbar / (2.0 * ctx.params.theta)
    return c * _commutator_action(ctx.r_sq)


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
    so conjugation swaps and daggers each term.  Anti-linear Theta itself has no
    matrix form; this is the only materializable combination.
    """
    return SuperOperator([(right.conj().T, left.conj().T) for left, right in s.terms])
