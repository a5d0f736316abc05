"""Shared helpers: hypothesis profile, seeded state and superoperator factories, and the dense oracles."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ncqm import ModelParams, QuantumState, SuperOperator, build_fock

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def interior_state(rng: np.random.Generator, cutoff: int, margin: int) -> QuantumState:
    """Dense normalized random state supported strictly below level cutoff - margin."""
    top = cutoff - margin
    block = rng.standard_normal((top, top)) + 1j * rng.standard_normal((top, top))
    op = np.zeros((cutoff, cutoff), dtype=complex)
    op[:top, :top] = block
    return QuantumState(op).normalized()


def full_state(rng: np.random.Generator, cutoff: int) -> QuantumState:
    """Normalized random state with support on every level, boundary included."""
    op = rng.standard_normal((cutoff, cutoff)) + 1j * rng.standard_normal((cutoff, cutoff))
    return QuantumState(op).normalized()


def random_band(rng: np.random.Generator, cutoff: int, real: bool = False) -> tuple:
    """A band side (offset, weights) at a random offset, with complex weights unless real."""
    k = int(rng.integers(1 - cutoff, cutoff))
    w = rng.standard_normal(cutoff - abs(k))
    return k, w if real else w + 1j * rng.standard_normal(cutoff - abs(k))


def random_superop(rng: np.random.Generator, cutoff: int, nterms: int = 4) -> SuperOperator:
    """Random band terms: complex on the left, real on the right, and one identity side in each of the last two."""
    terms = [(random_band(rng, cutoff), random_band(rng, cutoff, real=True)) for _ in range(nterms - 2)]
    return SuperOperator(cutoff, terms + [(random_band(rng, cutoff), None), (None, random_band(rng, cutoff))])


def bands(mat: np.ndarray) -> list:
    """The nonzero bands of an N x N matrix as SuperOperator sides (k, np.diagonal(mat, k)), k ascending.

    The oracle for the package's closed-form Fock bands: what np.diagonal reads off the dense matrices.
    """
    rows, cols = np.nonzero(mat)
    found = [(k, np.diagonal(mat, k)) for k in np.unique(cols - rows).tolist()]
    return [(k, w if w.imag.any() else w.real) for k, w in found]


def fock(ctx) -> SimpleNamespace:
    """The dense truncated Fock matrices b, bdag, x1, x2 and r_sq of ctx, as complex N x N arrays.

    b[l, l+1] = sqrt(l + 1), bdag its conjugate transpose, x1 = sqrt(theta/2)(b + bdag),
    x2 = i sqrt(theta/2)(bdag - b) and r_sq = x1 @ x1 + x2 @ x2, a BLAS product: the oracle
    for the package's closed-form bands, which never builds these matrices.
    """
    b = np.diag(np.sqrt(np.arange(1.0, ctx.cutoff)) + 0j, 1)
    bdag = np.ascontiguousarray(b.conj().T)
    s = np.sqrt(ctx.params.theta / 2.0)
    x1, x2 = s * (b + bdag), 1j * s * (bdag - b)
    return SimpleNamespace(b=b, bdag=bdag, x1=x1, x2=x2, r_sq=x1 @ x1 + x2 @ x2)


def rounded_r_sq_diag(ctx) -> np.ndarray:
    """theta (2l + 1), and theta (N - 1) at the top level, each rounded once from the exact rational product."""
    n, theta = ctx.cutoff, Fraction(ctx.params.theta)
    return np.array([float(theta * (2 * l + 1 if l < n - 1 else n - 1)) for l in range(n)])


def band_matrix(n: int, sides) -> np.ndarray:
    """The N x N complex matrix with each band's weights where np.diagonal reads them: the inverse of bands."""
    return sum((np.diag(w, k) for k, w in sides), np.zeros((n, n), dtype=complex))


def dense_sides(s: SuperOperator) -> list:
    """Each term of s as its dense N x N pair (L, R); an identity side is np.eye."""
    n = s.cutoff
    return [tuple(np.eye(n) if side is None else np.diag(side[1], side[0]) for side in term) for term in s.terms]


def dense_apply(s: SuperOperator, psi: QuantumState) -> np.ndarray:
    """The dense oracle of s.apply(psi): sum_t L_t psi R_t over the dense sides."""
    return sum(left @ psi.op @ right for left, right in dense_sides(s))


def apply_scale(s: SuperOperator, psi: QuantumState) -> float:
    """max over entries of sum_t |L_t| |psi| |R_t|: the size of the products that s.apply sums."""
    return float(np.max(sum(np.abs(left) @ np.abs(psi.op) @ np.abs(right) for left, right in dense_sides(s))))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


@pytest.fixture
def ctx01():
    """The workhorse context: theta = 0.1, unit constants, 30 retained levels."""
    return build_fock(ModelParams(theta=0.1, cutoff=30))
