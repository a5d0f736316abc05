"""Shared helpers: hypothesis profile, seeded state and superoperator factories, and the dense oracle."""

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
