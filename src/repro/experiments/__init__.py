"""Experiment runners that regenerate each paper table and figure.

Every runner but Fig. 2 is a seeded grid: it builds a list of
:func:`run_method` configs and reads the per-seed results that
:func:`~repro.experiments.grid.run_grid` returns for them, so every one
takes ``seeds``, ``jobs``, ``checkpoint_dir``/``resume`` and ``progress``.
One module per experiment:

* :mod:`.table1` — final accuracy comparison (Table I)
* :mod:`.table2` — condensation time/accuracy (Table II)
* :mod:`.fig2` — misclassification structure (Fig. 2)
* :mod:`.fig3` — learning curves (Fig. 3)
* :mod:`.fig4` — threshold and alpha sweeps (Fig. 4a/4b)
* :mod:`.ablations` — design-choice ablations (beyond the paper)
* :mod:`.noise` — pseudo-label noise robustness (beyond the paper)
"""

from .ablations import AblationResult, format_ablations, run_ablations
from .common import (METHOD_NAMES, MethodResult, PreparedExperiment,
                     prepare_experiment, run_method)
from .fig2 import Fig2Result, format_fig2, run_fig2
from .fig3 import (Fig3Result, LearningCurve, curve_smoothness, data_to_reach,
                   format_fig3, run_fig3)
from .fig4 import (Fig4aResult, Fig4bResult, format_fig4a, format_fig4b,
                   run_fig4a, run_fig4b)
from .grid import run_grid, run_method_grid
from .noise import (NoiseRobustnessResult, format_noise_robustness,
                    run_noise_robustness)
from .profiles import (PROFILE_NAMES, ExperimentProfile, get_profile,
                       learning_rate, pretrain_fraction, stream_settings)
from .table1 import Table1Result, format_table1, run_table1
from .table2 import Table2Result, format_table2, run_table2

__all__ = [
    "prepare_experiment", "run_method", "run_grid", "run_method_grid",
    "MethodResult",
    "PreparedExperiment", "METHOD_NAMES",
    "ExperimentProfile", "get_profile", "PROFILE_NAMES",
    "learning_rate", "pretrain_fraction", "stream_settings",
    "Table1Result", "run_table1", "format_table1",
    "Table2Result", "run_table2", "format_table2",
    "Fig2Result", "run_fig2", "format_fig2",
    "Fig3Result", "LearningCurve", "run_fig3", "format_fig3",
    "curve_smoothness", "data_to_reach",
    "Fig4aResult", "Fig4bResult", "run_fig4a", "run_fig4b",
    "format_fig4a", "format_fig4b",
    "AblationResult", "run_ablations", "format_ablations",
    "NoiseRobustnessResult", "run_noise_robustness",
    "format_noise_robustness",
]
