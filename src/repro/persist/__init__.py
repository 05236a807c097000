"""Persistence + crash-resume subsystem.

Everything this repository writes to disk for later reuse goes through one
format (:mod:`~repro.persist.checkpoint`: a compressed ``.npz`` of arrays
plus a JSON manifest with schema version, identity, RNG state, and a
content hash) and three layers built on it:

* :mod:`~repro.persist.prepared_cache` — prepared experiments (pretrained
  weights + dataset splits) cached per ``(dataset, profile, seed)`` so
  repeated sweeps skip re-pretraining;
* :mod:`~repro.persist.learner_io` — mid-stream learner checkpoints so a
  killed DECO run resumes bit-identically;
* :mod:`~repro.persist.journal` + :mod:`~repro.persist.results` — a resume
  journal of completed grid points so an interrupted sweep re-executes
  only the missing ones.

``python -m repro checkpoints DIR`` renders a directory's contents
(:mod:`~repro.persist.summary`).  ``tests/persist/test_grid_resume.py``
crashes and resumes a real grid at ``jobs=1`` and ``jobs=2``.
"""

from .checkpoint import (SCHEMA_VERSION, Checkpoint, CheckpointError,
                         config_hash, content_hash, get_rng_state,
                         json_sanitize, read_checkpoint, read_manifest,
                         set_rng_state, write_checkpoint)
from .journal import ResumeJournal
from .learner_io import (latest_learner_checkpoint, list_learner_checkpoints,
                         restore_learner, save_learner_checkpoint)
from .prepared_cache import (load_prepared, pack_prepared, prepared_cache_path,
                             rebuild_prepared, save_prepared)
from .results import (load_method_result, method_result_store,
                      save_method_result)
from .summary import summarize_checkpoint_dir

__all__ = [
    "SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointError",
    "content_hash",
    "config_hash",
    "write_checkpoint",
    "read_checkpoint",
    "read_manifest",
    "get_rng_state",
    "set_rng_state",
    "json_sanitize",
    "ResumeJournal",
    "save_learner_checkpoint",
    "latest_learner_checkpoint",
    "list_learner_checkpoints",
    "restore_learner",
    "prepared_cache_path",
    "save_prepared",
    "load_prepared",
    "pack_prepared",
    "rebuild_prepared",
    "save_method_result",
    "load_method_result",
    "method_result_store",
    "summarize_checkpoint_dir",
]
