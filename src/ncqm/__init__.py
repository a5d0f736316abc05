"""Numerical laboratory for quantum mechanics on the non-commutative plane.

Configuration space is a truncated boson Fock space carrying [x1, x2] = i theta;
physical states are matrices on it (Hilbert-Schmidt vectors), observables are
superoperators, and position is measured through a coherent-state POVM.  The
package provides the operator algebra, exact oscillator solutions, spectra and
unitary evolution, position densities, and a reproducible CLI.
"""

import os as _os


def _thread_count(raw: str) -> int | None:
    """NCQM_THREADS as a positive integer, else None: the one parse, numpy-free, shared with the CLI."""
    try:
        n = int(raw)
    except ValueError:
        return None
    return n if n >= 1 else None


def _apply_thread_env() -> None:
    """Honor NCQM_THREADS by capping BLAS pools, if numpy is not yet loaded.

    Runs before any numpy import below, so the cap is effective for the CLI
    entry point; an embedding process that imported numpy first keeps whatever
    threading it already chose.  Explicit BLAS variables are never overridden.
    A malformed value is left for the CLI to report; library import stays quiet.
    """
    n = _thread_count(_os.environ.get("NCQM_THREADS", ""))
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(var, str(n))


_apply_thread_env()

from .core import (  # noqa: E402
    ConfigurationError,
    ConsistencyError,
    ConvergenceError,
    DegenerateOscillatorError,
    FockContext,
    MeasurementImpossibleError,
    ModelParams,
    NcqmError,
    NumericalError,
    QuantumState,
    SuperOperator,
    TruncationError,
    UsageError,
    ValidationError,
    build_fock,
    hs_inner,
    support_weight,
    unvec,
    vec,
)
from .observables import (  # noqa: E402
    ObservableSet,
    angular_momentum,
    momentum_ops,
    observables,
    position_ops,
    rotate,
    time_reverse,
    time_reverse_conjugate,
)
from .oscillator import (  # noqa: E402
    BogoliubovResult,
    alpha,
    bogoliubov_transform,
    energy,
    excited_state,
    ground_probability,
    ground_state,
    ground_tail_weight,
    k_norms,
    ladder_ops,
    lambdas,
)
from .dynamics import (  # noqa: E402
    Hamiltonian,
    HamiltonianSpec,
    SpectrumResult,
    boundary_defect_depth,
    continuity_residual,
    evolve,
    hamiltonian,
    interior_residual,
    plane_wave,
    solve_spectrum,
    spectrum_levels,
)
from .measurement import (  # noqa: E402
    GridSpec,
    ProbabilityGrid,
    StateSymbol,
    TruncationWarning,
    coherent_state_op,
    coherent_tail,
    coherent_vector,
    deriv_z,
    deriv_zbar,
    density_series,
    position_probability,
    post_measurement,
    povm_identity_residual,
    povm_matrix,
    probability_grid,
    symbol,
)

__version__ = "0.1.0"

__all__ = [
    # core
    "NcqmError", "ConfigurationError", "UsageError", "ValidationError",
    "TruncationError", "ConvergenceError", "ConsistencyError",
    "DegenerateOscillatorError", "MeasurementImpossibleError", "NumericalError",
    "ModelParams", "FockContext", "QuantumState", "SuperOperator",
    "build_fock", "hs_inner", "vec", "unvec", "support_weight",
    # observables
    "ObservableSet", "observables", "position_ops", "momentum_ops",
    "angular_momentum", "rotate", "time_reverse", "time_reverse_conjugate",
    # oscillator
    "lambdas", "alpha", "k_norms", "energy", "ground_probability",
    "BogoliubovResult", "bogoliubov_transform", "ladder_ops",
    "ground_tail_weight", "ground_state", "excited_state",
    # dynamics
    "HamiltonianSpec", "Hamiltonian", "SpectrumResult", "hamiltonian",
    "spectrum_levels", "solve_spectrum", "evolve", "plane_wave", "boundary_defect_depth",
    "interior_residual", "continuity_residual",
    # measurement
    "TruncationWarning", "coherent_vector", "coherent_tail", "coherent_state_op",
    "StateSymbol", "symbol", "deriv_z", "deriv_zbar", "density_series",
    "position_probability",
    "GridSpec", "ProbabilityGrid", "probability_grid", "povm_matrix",
    "post_measurement", "povm_identity_residual",
    "__version__",
]
