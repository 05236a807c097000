"""Process-level parallel execution for the DECO reproduction stack.

:mod:`repro.parallel.sweep` fans independent experiment grid points out
to worker processes (``--jobs``).  Each worker receives the grid's shared
context (the prepared experiment) once: inherited under ``fork``, pickled
once per worker under ``spawn``.  Each grid point runs its whole on-device
pipeline single-threaded, so results are identical whatever the job
count.  ``jobs=1`` (the default) runs the grid inline, in order.
"""

from .sweep import (SweepOutcome, SweepTaskError, default_start_method,
                    iter_sweep, run_sweep)

__all__ = [
    "SweepOutcome",
    "SweepTaskError",
    "iter_sweep",
    "run_sweep",
    "default_start_method",
]
