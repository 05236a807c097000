"""DECO reproduction: memory-efficient on-device learning via dataset condensation.

This package is a from-scratch reproduction of "Enabling Memory-Efficient
On-Device Learning via Dataset Condensation" (Xu et al., DATE 2025) on a
pure-numpy substrate.  Top-level subpackages:

* :mod:`repro.nn` — autodiff engine, the ConvNet backbone, optimizers, losses.
* :mod:`repro.data` — synthetic dataset generators and non-i.i.d. stream builders.
* :mod:`repro.buffer` — replay buffers and selection baselines.
* :mod:`repro.condensation` — DECO one-step matching plus DC/DSA/DM baselines.
* :mod:`repro.core` — pseudo-labeling, the DECO algorithm, learners, evaluation.
* :mod:`repro.experiments` — runners that regenerate each paper table/figure.
* :mod:`repro.obs` — structured telemetry: spans, counters, JSONL traces.
"""

__version__ = "1.0.0"

from . import (buffer, condensation, core, data, experiments, nn, obs,
               parallel, utils)

__all__ = ["nn", "data", "buffer", "condensation", "core", "experiments",
           "obs", "utils", "__version__"]
