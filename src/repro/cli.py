"""Command-line interface: regenerate any paper experiment from the shell.

Usage::

    python -m repro table1 --datasets core50 --ipcs 1 5
    python -m repro table2
    python -m repro fig2
    python -m repro fig3
    python -m repro fig4a
    python -m repro fig4b
    python -m repro ablations
    python -m repro noise
    python -m repro run --method deco --dataset core50 --ipc 10
    python -m repro checkpoints runs/ckpt
    python -m repro obs summarize runs/trace
    python -m repro obs summarize runs/trace --json
    python -m repro obs trace runs/trace
    python -m repro obs regress --dry-run

Every subcommand accepts ``--profile micro|smoke|paper`` and prints the
paper-style report; ``--output`` additionally writes it to a file.  Every
experiment but ``fig2`` is a seeded grid: ``--seeds S [S ...]`` (after the
subcommand; default: the profile's seeds) picks the trial seeds and the
report gives mean±std over them, and ``--jobs N`` runs the grid's points in
N worker processes.  ``run`` and ``fig2`` run one stream or one model and
take a single ``--seed``.

``--telemetry DIR`` records a structured JSONL trace of the run
(per-segment events, per-pass span timings, kernel/cache counters) into
``DIR/trace.jsonl``, which ``python -m repro obs summarize DIR`` renders
as tables.  With ``--jobs N`` the sweep workers additionally write
per-task telemetry shards under ``DIR/shards/``, merged into
``DIR/workers.jsonl`` after the sweep; grid commands stream live progress
lines to stderr (``--no-progress`` disables).  ``python -m repro obs
regress`` checks the micro-benchmark history for performance regressions.

``--checkpoint-dir DIR`` persists prepared experiments and journals every
completed grid point; re-running the same command with ``--resume`` skips
the journaled points, so an interrupted grid continues where it stopped.
``python -m repro checkpoints DIR`` summarizes what a checkpoint directory
holds.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .experiments import (format_ablations, format_fig2, format_fig3,
                          format_fig4a, format_fig4b,
                          format_noise_robustness, format_table1,
                          format_table2, get_profile, prepare_experiment,
                          run_ablations, run_fig2, run_fig3, run_fig4a,
                          run_fig4b, run_method, run_noise_robustness,
                          run_table1, run_table2)
from .experiments.grid import prepared_cache_dir

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DECO (DATE 2025) reproduction experiment runner")
    parser.add_argument("--profile", default="smoke",
                        choices=("micro", "smoke", "paper"))
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="also write the report to this file")
    parser.add_argument("--telemetry", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="record a JSONL telemetry trace of the run "
                             "into DIR/trace.jsonl")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        metavar="OUT.json",
                        help="additionally export the run's telemetry as "
                             "Chrome trace-event JSON (Perfetto-loadable); "
                             "implies telemetry recording (into a temporary "
                             "directory unless --telemetry is also given)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for experiment grids "
                             "(every command but run/fig2); "
                             "1 = run serially in-process (default)")
    parser.add_argument("--checkpoint-dir", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="persist prepared experiments and completed "
                             "grid points under DIR (journal.jsonl + "
                             "results/ + prepared/)")
    parser.add_argument("--resume", action="store_true",
                        help="skip grid points already journaled in "
                             "--checkpoint-dir from an interrupted run")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress the live per-grid-point progress "
                             "lines grid commands print to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    # Options of every seeded-grid command.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--seeds", nargs="+", type=int, default=None,
                      help="trial seeds; the report gives mean±std over "
                           "them (default: the profile's seeds)")

    def grid_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[grid], **kwargs)

    t1 = grid_parser("table1", help="Table I: accuracy comparison")
    t1.add_argument("--datasets", nargs="+",
                    default=["icub1", "core50", "cifar100", "imagenet10"])
    t1.add_argument("--ipcs", nargs="+", type=int, default=[1, 5, 10, 50])
    t1.add_argument("--decode-factors", nargs="+", type=int, default=None,
                    metavar="F",
                    help="factorized-storage sweep: each F>1 adds a DECO "
                         "column stored at 1/F resolution with F^2 x the "
                         "IpC — same bytes, F^2 more images (default: the "
                         "profile's factors)")

    t2 = grid_parser("table2", help="Table II: condensation time")
    t2.add_argument("--ipcs", nargs="+", type=int, default=[1, 5, 10, 50])
    t2.add_argument("--condensers", nargs="+",
                    default=["dc", "dsa", "dm", "deco"])

    f2 = sub.add_parser("fig2", help="Fig. 2: misclassification structure")
    f2.add_argument("--seed", type=int, default=0)

    f3 = grid_parser("fig3", help="Fig. 3: learning curves")
    f3.add_argument("--ipc", type=int, default=10)

    f4a = grid_parser("fig4a", help="Fig. 4a: filter threshold sweep")
    f4a.add_argument("--ipc", type=int, default=10)

    f4b = grid_parser("fig4b", help="Fig. 4b: alpha sweep")
    f4b.add_argument("--ipcs", nargs="+", type=int, default=[5, 10])

    grid_parser("ablations", help="design-choice ablations")

    noise = grid_parser("noise", help="pseudo-label noise robustness")
    noise.add_argument("--ipc", type=int, default=10)
    noise.add_argument("--noise-rates", nargs="+", type=float,
                       default=[0.0, 0.2, 0.4])

    run = sub.add_parser("run", help="run a single method once")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--method", default="deco")
    run.add_argument("--dataset", default="core50")
    run.add_argument("--ipc", type=int, default=10)
    run.add_argument("--condenser", default="deco",
                     choices=("deco", "dc", "dsa", "dm"))
    run.add_argument("--decode-factor", type=int, default=None, metavar="F",
                     help="store the synthetic buffer at 1/F linear "
                          "resolution, decoded by bilinear upsample "
                          "(deco only; default 1 = full resolution)")
    run.add_argument("--checkpoint-every", type=int, default=None,
                     metavar="K",
                     help="checkpoint learner state into --checkpoint-dir "
                          "every K stream segments (enables mid-stream "
                          "kill/--resume)")

    ckpt = sub.add_parser("checkpoints",
                          help="inspect a --checkpoint-dir: journaled grid "
                               "points, cached prepared experiments, "
                               "learner checkpoints")
    ckpt.add_argument("dir", type=pathlib.Path,
                      help="checkpoint directory to summarize")

    obs_cmd = sub.add_parser("obs",
                             help="observability tooling: telemetry traces "
                                  "and bench-history regression checks")
    obs_sub = obs_cmd.add_subparsers(dest="action", required=True)
    summ = obs_sub.add_parser("summarize",
                              help="render a telemetry trace as tables")
    summ.add_argument("trace", type=pathlib.Path,
                      help="trace.jsonl file or the run directory "
                           "written by --telemetry")
    summ.add_argument("--json", action="store_true", dest="as_json",
                      help="emit one machine-readable JSON document "
                           "mirroring the rendered tables")
    trc = obs_sub.add_parser("trace",
                             help="export a telemetry run as Chrome "
                                  "trace-event JSON (load in Perfetto)")
    trc.add_argument("trace", type=pathlib.Path,
                     help="trace.jsonl file or the run directory "
                          "written by --telemetry")
    trc.add_argument("--out", type=pathlib.Path, default=None,
                     metavar="OUT.json",
                     help="output path (default: "
                          "<run_dir>/trace.chrome.json)")
    rep = obs_sub.add_parser("report",
                             help="render a telemetry run as one "
                                  "self-contained HTML report (tables, "
                                  "timelines, health incidents)")
    rep.add_argument("trace", type=pathlib.Path,
                     help="trace.jsonl file or the run directory "
                          "written by --telemetry")
    rep.add_argument("-o", "--out", type=pathlib.Path, default=None,
                     metavar="OUT",
                     help="output path (default: <run_dir>/report.html)")
    rep.add_argument("--json", action="store_true", dest="as_json",
                     help="write the report document as JSON instead "
                          "of HTML")
    reg = obs_sub.add_parser("regress",
                             help="compare the newest bench-history entries "
                                  "against their trailing baselines")
    reg.add_argument("--history", type=pathlib.Path, default=None,
                     metavar="FILE",
                     help="bench history JSONL (default: "
                          "bench_results/bench_history.jsonl)")
    reg.add_argument("--window", type=int, default=None, metavar="K",
                     help="baseline = median of up to K prior matching "
                          "entries (default: 5)")
    reg.add_argument("--threshold", type=float, default=None, metavar="F",
                     help="flag a metric >= (1+F) x baseline "
                          "(default: 0.20)")
    reg.add_argument("--dry-run", action="store_true",
                     help="report regressions but exit 0 anyway")
    return parser


def _obs_regress(args: argparse.Namespace) -> str:
    from .obs import regress

    path = (args.history if args.history is not None
            else regress.default_history_path())
    report = regress.check_regressions(
        path,
        window=args.window if args.window is not None
        else regress.DEFAULT_WINDOW,
        threshold=args.threshold if args.threshold is not None
        else regress.DEFAULT_THRESHOLD)
    text = regress.format_regress_report(report, history_path=path)
    if not report.ok and not args.dry_run:
        print(text)
        raise SystemExit(2)
    return text


def _dispatch(args: argparse.Namespace) -> str:
    if args.command == "obs":
        if args.action == "regress":
            return _obs_regress(args)
        if args.action == "trace":
            from .obs import export_trace, trace_stats, validate_trace
            import json
            try:
                out = export_trace(args.trace, args.out)
            except FileNotFoundError as exc:
                raise SystemExit(f"repro obs: error: {exc}") from exc
            trace = json.loads(out.read_text(encoding="utf-8"))
            stats = trace_stats(trace)
            problems = validate_trace(trace)
            lines = [f"trace-event JSON written to {out}",
                     f"  {stats['span_events']} span events on "
                     f"{stats['span_lanes']} lane(s), "
                     f"{stats['counter_tracks']} counter track(s) "
                     f"({stats['memory_counter_tracks']} memory)",
                     f"  load it at ui.perfetto.dev or chrome://tracing"]
            if problems:
                lines.append(f"  WARNING: {len(problems)} schema problem(s), "
                             f"e.g. {problems[0]}")
            return "\n".join(lines)
        if args.action == "report":
            from .obs.report import write_report
            out = write_report(args.trace, args.out, as_json=args.as_json)
            kind = "JSON" if args.as_json else "HTML"
            return f"self-contained {kind} run report written to {out}"
        try:
            if getattr(args, "as_json", False):
                from .obs import summarize_trace_json
                import json
                return json.dumps(summarize_trace_json(args.trace),
                                  indent=1, sort_keys=True)
            from .obs import summarize_trace
            return summarize_trace(args.trace)
        except FileNotFoundError as exc:
            raise SystemExit(f"repro obs: error: {exc}") from exc
    if args.command == "checkpoints":
        from .persist import summarize_checkpoint_dir
        try:
            return summarize_checkpoint_dir(args.dir)
        except FileNotFoundError as exc:
            raise SystemExit(f"repro checkpoints: error: {exc}") from exc
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("repro: error: --resume requires --checkpoint-dir")
    if args.command == "fig2":
        return format_fig2(run_fig2(profile=args.profile, seed=args.seed))
    if args.command == "run":
        prepared = prepare_experiment(
            args.dataset, args.profile, seed=args.seed,
            cache_dir=prepared_cache_dir(args.checkpoint_dir))
        if args.checkpoint_every is not None and args.checkpoint_dir is None:
            raise SystemExit("repro run: error: --checkpoint-every requires "
                             "--checkpoint-dir")
        result = run_method(prepared, args.method, args.ipc, seed=args.seed,
                            condenser_name=args.condenser,
                            decode_factor=args.decode_factor,
                            checkpoint_every=args.checkpoint_every,
                            checkpoint_dir=args.checkpoint_dir,
                            resume=args.resume)
        return (f"{result.method} on {args.dataset} (IpC={args.ipc}): "
                f"accuracy {result.final_accuracy:.2%} in "
                f"{result.wall_seconds:.1f}s "
                f"(condensation {result.condense_seconds:.1f}s, "
                f"{result.condense_passes} passes)")
    # Grid commands stream one progress line per completed point to stderr
    # (config, accuracy, wall time, running ETA); stdout — the report — is
    # byte-identical with or without it.
    if args.no_progress:
        progress = None
    else:
        from .obs import SweepProgress
        progress = SweepProgress()
    seeds = (tuple(args.seeds) if args.seeds is not None
             else tuple(range(get_profile(args.profile).num_seeds)))
    grid = dict(profile=args.profile, seeds=seeds, jobs=args.jobs,
                checkpoint_dir=args.checkpoint_dir, resume=args.resume,
                progress=progress)
    if args.command == "table1":
        factors = (tuple(args.decode_factors)
                   if args.decode_factors is not None else None)
        return format_table1(run_table1(
            datasets=tuple(args.datasets), ipcs=tuple(args.ipcs),
            decode_factors=factors, **grid))
    if args.command == "table2":
        return format_table2(run_table2(
            ipcs=tuple(args.ipcs), condensers=tuple(args.condensers), **grid))
    if args.command == "fig3":
        return format_fig3(run_fig3(ipc=args.ipc, **grid))
    if args.command == "fig4a":
        return format_fig4a(run_fig4a(ipc=args.ipc, **grid))
    if args.command == "fig4b":
        return format_fig4b(run_fig4b(ipcs=tuple(args.ipcs), **grid))
    if args.command == "ablations":
        return format_ablations(run_ablations(**grid))
    if args.command == "noise":
        return format_noise_robustness(run_noise_robustness(
            ipc=args.ipc, noise_rates=tuple(args.noise_rates), **grid))
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    tracing = ((args.telemetry is not None or args.trace is not None)
               and args.command != "obs")
    run_dir = args.telemetry
    if tracing:
        if run_dir is None:
            # --trace without --telemetry: record into a scratch run dir
            # that exists only to feed the export.
            import tempfile
            run_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-trace-"))
        from . import obs
        obs.enable(run_dir)
        obs.event("run_start", command=args.command, profile=args.profile)
    try:
        report = _dispatch(args)
    finally:
        if tracing:
            from . import obs
            obs.collect_runtime_counters()
            obs.shutdown()
    print(report)
    if args.output is not None:
        args.output.write_text(report + "\n")
    if tracing and args.trace is not None:
        from .obs import export_trace
        out = export_trace(run_dir, args.trace)
        print(f"[Chrome trace-event JSON saved to {out} — load it at "
              f"ui.perfetto.dev]")
    if args.telemetry is not None and args.command != "obs":
        print(f"[telemetry trace saved to {args.telemetry}/trace.jsonl — "
              f"summarize with: python -m repro obs summarize {args.telemetry}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
