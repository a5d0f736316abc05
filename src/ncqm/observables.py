"""Positions, momenta, angular momentum, rotations, and time reversal as maps on states.

Positions act by left multiplication, momenta adjointly:

    X_i psi = x_i psi,   P_1 psi = (hbar/theta)[x_2, psi],   P_2 psi = -(hbar/theta)[x_1, psi].

Angular momentum is the commutator with the (truncated) x1^2 + x2^2, which is
diagonal in the Fock basis; rotations therefore act by exact phases and time
reversal is the conjugate transpose (anti-linear, never materialized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FockContext, QuantumState, SuperOperator

__all__ = [
    "ObservableSet",
    "observables",
    "position_ops",
    "momentum_ops",
    "angular_momentum",
    "rotate",
    "time_reverse",
    "time_reverse_conjugate",
]


def _left_mult(op: np.ndarray, hermitian: bool = False) -> SuperOperator:
    eye = np.eye(op.shape[0], dtype=complex)
    return SuperOperator([(op, eye)], hermitian_on_Hq=hermitian)


def _commutator_action(op: np.ndarray, hermitian: bool = False) -> SuperOperator:
    """psi -> [op, psi] as a two-term superoperator."""
    eye = np.eye(op.shape[0], dtype=complex)
    return SuperOperator([(op, eye), (-eye, op)], hermitian_on_Hq=hermitian)


@dataclass(frozen=True)
class ObservableSet:
    """The standard observables for one context.

    X1, X2:   left multiplication by x_i (Hermitian on the state space).
    P1, P2:   (hbar/theta) eps_ij [x_j, .]; Hermitian.
    B, Bdag:  left multiplication by b, b^dag.
    P, Pdag:  complex momentum combinations P = P1 + iP2 = -i hbar sqrt(2/theta)[b, .].
    Lz:       quantum angular momentum, psi -> -(hbar/2 theta)[x1^2 + x2^2, psi].
    ell_z:    configuration-space rotation generator (-i/2 theta)(x1^2 + x2^2).
    """

    X1: SuperOperator
    X2: SuperOperator
    P1: SuperOperator
    P2: SuperOperator
    B: SuperOperator
    Bdag: SuperOperator
    P: SuperOperator
    Pdag: SuperOperator
    Lz: SuperOperator
    ell_z: np.ndarray


def position_ops(ctx: FockContext) -> tuple[SuperOperator, SuperOperator]:
    return _left_mult(ctx.x1, hermitian=True), _left_mult(ctx.x2, hermitian=True)


def momentum_ops(ctx: FockContext) -> tuple[SuperOperator, SuperOperator]:
    c = ctx.params.hbar / ctx.params.theta
    return (c * _commutator_action(ctx.x2, hermitian=True),
            -c * _commutator_action(ctx.x1, hermitian=True))


def angular_momentum(ctx: FockContext) -> SuperOperator:
    """psi -> -(hbar/2 theta)[x1^2 + x2^2, psi], with truncated operator products.

    On matrix units below the top level this is hbar(n - m)|m><n|; the top
    Fock row and column see the truncation defect of x^2 (the composed form
    X1 P2 - X2 P1 + (theta/2 hbar) P^2 carries exactly the same defect, and the
    two constructions agree identically; see the tests).
    """
    r_sq = ctx.x1 @ ctx.x1 + ctx.x2 @ ctx.x2
    c = -ctx.params.hbar / (2.0 * ctx.params.theta)
    return c * _commutator_action(r_sq, hermitian=True)


def observables(ctx: FockContext) -> ObservableSet:
    x1, x2 = position_ops(ctx)
    p1, p2 = momentum_ops(ctx)
    pref = ctx.params.hbar * np.sqrt(2.0 / ctx.params.theta)
    p = -1j * pref * _commutator_action(ctx.b)
    pdag = 1j * pref * _commutator_action(ctx.bdag)
    ell_z = (-1j / (2.0 * ctx.params.theta)) * (ctx.x1 @ ctx.x1 + ctx.x2 @ ctx.x2)
    return ObservableSet(
        X1=x1,
        X2=x2,
        P1=p1,
        P2=p2,
        B=_left_mult(ctx.b),
        Bdag=_left_mult(ctx.bdag),
        P=p,
        Pdag=pdag,
        Lz=angular_momentum(ctx),
        ell_z=ell_z,
    )


def rotate(psi: QuantumState, phi: float) -> QuantumState:
    """Rotate a state by angle phi: U^dag psi U with U = exp(-i phi (b^dag b + 1/2)).

    U is diagonal in the Fock basis, so the action is the exact phase table
    psi_mn -> exp(i phi (m - n)) psi_mn; the half-integer shifts cancel and the
    norm is preserved exactly.
    """
    n = psi.cutoff
    levels = np.arange(n)
    phase = np.exp(1j * phi * (levels[:, None] - levels[None, :]))
    return QuantumState(phase * psi.op)


def time_reverse(psi: QuantumState) -> QuantumState:
    """Anti-linear time reversal: psi -> psi^dag."""
    return psi.dagger()


def time_reverse_conjugate(s: SuperOperator) -> SuperOperator:
    """The linear map Theta S Theta^{-1}, computed termwise.

    Theta(sum_t L_t psi^dag R_t)^, applied to psi, equals sum_t R_t^dag psi L_t^dag,
    so conjugation swaps and daggers each term.  Anti-linear Theta itself has no
    matrix form; this is the only materializable combination.
    """
    return SuperOperator(
        [(right.conj().T, left.conj().T) for left, right in s.terms],
        hermitian_on_Hq=s.hermitian_on_Hq,
    )
