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

from . import core, dynamics, measurement, observables, oscillator  # noqa: E402

__version__ = "0.1.0"

# the public surface is each module's own list
__all__ = [*core.__all__, *dynamics.__all__, *measurement.__all__, *observables.__all__,
           *oscillator.__all__, "__version__"]

from .core import *  # noqa: E402,F401,F403
from .dynamics import *  # noqa: E402,F401,F403
from .measurement import *  # noqa: E402,F401,F403
from .observables import *  # noqa: E402,F401,F403
from .oscillator import *  # noqa: E402,F401,F403
