"""Micro-benchmark regression harness for the numpy kernel layer.

Unlike the paper-level benchmarks in :mod:`benchmarks`, these scripts time
individual kernels against the preserved seed implementations (which they
call directly from the tests' oracle, :mod:`tests.nn.reference`) and one
full condensation segment on its own, and append machine-readable results
to ``bench_results/micro_kernels.json`` so future PRs have a performance
trajectory to regress against.

Run them directly::

    PYTHONPATH=src python benchmarks/micro/bench_kernels.py
    PYTHONPATH=src python benchmarks/micro/bench_condense_step.py

Both accept ``--repeats N`` (best-of-N timing) and merge their sections
into the shared JSON file.

Every run also appends one line per section to the committed
``bench_results/bench_history.jsonl``, which ``python -m repro obs
regress`` (and the tier-1 test of the real history) judges.  The kernel
and condense-step lines carry ``probe_s``: for each timing, the best time
of a fixed numpy probe (``bench_kernels.host_probe``) taken right before
its repeats.  The judge compares the timings scaled by it, so a slow
phase of a shared host does not read as a regression.  A run is
therefore a recording, not a smoke test: record deliberately with
``--repeats 5``, and discard a one-repeat run's changes to
``bench_results/`` rather than committing them.
"""
