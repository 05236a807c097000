"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.ipcs == [1, 5, 10, 50]
        assert args.profile == "smoke"

    def test_profile_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--profile", "gigantic", "fig2"])

    def test_run_subcommand_options(self):
        args = build_parser().parse_args(
            ["--profile", "micro", "run", "--method", "fifo",
             "--dataset", "icub1", "--ipc", "3"])
        assert args.method == "fifo"
        assert args.dataset == "icub1"
        assert args.ipc == 3

    def test_telemetry_flag_and_obs_subcommand(self):
        args = build_parser().parse_args(
            ["--telemetry", "/tmp/t", "run", "--ipc", "1"])
        assert str(args.telemetry) == "/tmp/t"
        args = build_parser().parse_args(["obs", "summarize", "trace.jsonl"])
        assert args.command == "obs"
        assert args.action == "summarize"

    def test_seeds_on_grid_commands_seed_on_single_runs(self):
        args = build_parser().parse_args(["fig3", "--seeds", "0", "1"])
        assert args.seeds == [0, 1]
        assert build_parser().parse_args(["noise"]).seeds is None
        assert build_parser().parse_args(["fig2", "--seed", "3"]).seed == 3
        assert build_parser().parse_args(["run", "--seed", "3"]).seed == 3

    def test_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["--checkpoint-dir", "/tmp/ck", "--resume", "table2"])
        assert str(args.checkpoint_dir) == "/tmp/ck"
        assert args.resume
        args = build_parser().parse_args(["checkpoints", "/tmp/ck"])
        assert args.command == "checkpoints"
        assert str(args.dir) == "/tmp/ck"
        args = build_parser().parse_args(
            ["run", "--checkpoint-every", "5"])
        assert args.checkpoint_every == 5


class TestMain:
    def test_run_single_method(self, capsys):
        code = main(["--profile", "micro", "run", "--method", "fifo",
                     "--dataset", "core50", "--ipc", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fifo on core50" in out
        assert "accuracy" in out

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        main(["--profile", "micro", "--output", str(target), "run",
              "--method", "random", "--dataset", "core50", "--ipc", "1"])
        assert target.exists()
        assert "random on core50" in target.read_text()

    def test_table1_micro_subset(self, capsys):
        code = main(["--profile", "micro", "table1", "--datasets", "core50",
                     "--ipcs", "1", "--seeds", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DECO (Ours)" in out

    def test_fig4a_micro(self, capsys):
        code = main(["--profile", "micro", "fig4a", "--ipc", "1"])
        assert code == 0
        assert "threshold" in capsys.readouterr().out

    def test_noise_micro(self, capsys):
        code = main(["--profile", "micro", "noise", "--ipc", "1",
                     "--noise-rates", "0.0", "0.5"])
        assert code == 0
        assert "noise robustness" in capsys.readouterr().out

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["--profile", "micro", "--resume", "table2", "--ipcs", "1"])

    def test_checkpoint_every_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["--profile", "micro", "run", "--ipc", "1",
                  "--checkpoint-every", "2"])

    def test_checkpoints_subcommand_missing_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="error"):
            main(["checkpoints", str(tmp_path / "nope")])

    def test_grid_checkpoint_resume_and_inspection(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ck")
        base = ["--profile", "micro", "--checkpoint-dir", ckpt]
        cmd = ["table2", "--ipcs", "1", "--condensers", "dm", "deco"]
        assert main(base + cmd) == 0
        first = capsys.readouterr().out

        assert main(base + ["--resume"] + cmd) == 0
        assert capsys.readouterr().out == first  # resumed run identical

        assert main(["checkpoints", ckpt]) == 0
        out = capsys.readouterr().out
        assert "Resume journal" in out
        assert "Prepared-experiment cache" in out

    def test_telemetry_run_and_summarize(self, tmp_path, capsys):
        run_dir = tmp_path / "trace"
        code = main(["--profile", "micro", "--telemetry", str(run_dir),
                     "run", "--method", "deco", "--dataset", "core50",
                     "--ipc", "1"])
        assert code == 0
        assert (run_dir / "trace.jsonl").exists()
        from repro import obs
        assert not obs.enabled()  # main() shuts telemetry back down
        capsys.readouterr()

        code = main(["obs", "summarize", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Segments" in out
        assert "Span timings" in out
        assert "Runtime counters" in out
        assert "health.checks" in out
        assert "memory.high_water_bytes" in out


GRID_COMMANDS = [
    ["table2", "--ipcs", "1", "--condensers", "dm", "deco"],
    ["fig3", "--ipc", "1"],
    ["fig4a", "--ipc", "1"],
    ["fig4b", "--ipcs", "1"],
    ["ablations"],
    ["noise", "--ipc", "1", "--noise-rates", "0.0", "0.4"],
]


def without_table2_times(report: str) -> str:
    """Table II minus its wall-clock column, the one cell a rerun changes."""
    lines = report.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    return "\n".join(" ".join(line.split()[:1] + line.split()[2::2])
                     for line in lines[rule + 1:])


class TestSeededGrids:
    """Every grid command runs seeds through one path: mean±std over
    ``--seeds``, the same report at any ``--jobs``, resumable."""

    def test_every_grid_command_prints_same_bytes_at_two_jobs(self, capsys):
        for cmd in GRID_COMMANDS:
            reports = []
            for jobs in ("1", "2"):
                assert main(["--profile", "micro", "--no-progress",
                             "--jobs", jobs] + cmd + ["--seeds", "0", "1"]) == 0
                reports.append(capsys.readouterr().out)
            # fig3 prints the mean curve; the tables print mean±std.
            assert cmd[0] == "fig3" or "±" in reports[0], cmd[0]
            if cmd[0] == "table2":
                reports = [without_table2_times(r) for r in reports]
            assert reports[0] == reports[1], cmd[0]

    def test_interrupted_noise_grid_resumes_to_same_bytes(
            self, tmp_path, capsys, monkeypatch):
        from repro.experiments import grid
        from repro.parallel import SweepTaskError

        cmd = ["noise", "--ipc", "1", "--noise-rates", "0.0", "0.4",
               "--seeds", "0", "1"]
        assert main(["--profile", "micro", "--no-progress"] + cmd) == 0
        uninterrupted = capsys.readouterr().out

        real_run_method, calls = grid.run_method, []

        def crash_on_third_point(prepared, **config):
            calls.append(config)
            if len(calls) == 3:
                raise RuntimeError("killed mid-grid")
            return real_run_method(prepared, **config)

        monkeypatch.setattr(grid, "run_method", crash_on_third_point)
        base = ["--profile", "micro", "--no-progress",
                "--checkpoint-dir", str(tmp_path)]
        with pytest.raises(SweepTaskError):
            main(base + cmd)

        calls.clear()
        monkeypatch.setattr(
            grid, "run_method",
            lambda prepared, **config: (calls.append(config),
                                        real_run_method(prepared, **config))[1])
        assert main(base + ["--resume"] + cmd) == 0
        assert capsys.readouterr().out == uninterrupted
        # 4 configs x 2 seeds: the sweep finished and journaled the other
        # seven points before raising, so only the killed one re-runs.
        assert len(calls) == 1
