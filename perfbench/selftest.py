#!/usr/bin/env python3
"""Self-test of the stream benchmark, end to end on the ``micro`` profile.

Checks, in a few seconds:

* ``BENCHMARK.json`` keeps to the benchmark format's limits, names the
  same workloads (with the same why-lines) as ``workloads.py``, and every
  metric named in ``predictions.json`` is one it declares;
* every workload, untraced and traced, exits 0 with a correct result whose
  metrics are exactly the declared end-to-end or per-layer names and units;
* ``final_acc``, ``footprint_bytes``, ``condensation.passes`` and
  ``training.retrain_steps`` repeat exactly across two runs of one seed;
* the traced run's Chrome trace file exists and passes
  ``repro.obs.validate_trace``;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the command exits non-zero without printing a result.

Usage::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3

sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS  # noqa: E402


def check_spec(spec: dict, predictions: dict) -> list[str]:
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(spec) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            problems.append(f"workload entry {w}")
        elif WORKLOADS.get(w["name"]) is None:
            problems.append(f"workload {w['name']} not in workloads.py")
        elif WORKLOADS[w["name"]].why != w["why"]:
            problems.append(f"workload {w['name']}: why differs from "
                            f"workloads.py")
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads {names} != {sorted(WORKLOADS)}")
    for m in spec["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append(f"end_to_end entry {m}")
        elif not 0 < m["bound"] <= 0.25:
            problems.append(f"{m['name']}: bound {m['bound']}")
    for m in spec["per_layer"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower",
                                                            "higher"):
            problems.append(f"{m['name']}: unit/better {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"]
                                           for m in spec["end_to_end"]):
        problems.append("setup_s missing or not given the largest bound")
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for row in predictions["layers"]:
        for metric in row["metrics"] + row["moves"]:
            if metric not in declared:
                problems.append(f"predictions.json names unknown {metric}")
    return problems


def run(args: list[str], cwd: pathlib.Path) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=str(cwd), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_run(workload: str, trace: int, declared: list[dict]
              ) -> tuple[list[str], dict]:
    code, lines = run(["--workload", workload, "--seed", str(SEED),
                       "--seconds", "1", "--trace", str(trace),
                       "--profile", "micro"], ROOT)
    tag = f"{workload} trace={trace}"
    if code != 0 or not lines:
        return [f"{tag}: exit {code}"], {}
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: correct={result['correct']} "
                        f"failed={result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{tag}: metrics/units differ: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    return problems, {k: v["value"] for k, v in result["metrics"].items()}


def check_trace_file(workload: str) -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro import obs
    path = ROOT / ".perfbench_work" / f"trace-{workload}-seed{SEED}.json"
    if not path.is_file():
        return [f"{workload}: no trace file {path.name}"]
    doc = json.loads(path.read_text())
    spans = sum(1 for e in doc["traceEvents"] if e.get("ph") == "B")
    problems = [f"{workload}: trace {p}" for p in obs.validate_trace(doc)]
    if spans == 0:
        problems.append(f"{workload}: trace holds no spans")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run(["--workload", spec["workloads"][0]["name"],
                       "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory: exit {code}, output {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    problems = check_spec(spec, predictions)
    repeat = ("final_acc", "footprint_bytes", "condensation.passes",
              "training.retrain_steps")
    for w in WORKLOADS:
        firsts = {}
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            found, first = check_run(w, trace, declared)
            again_found, again = check_run(w, trace, declared)
            problems += found + again_found
            for key in repeat:
                if key in first and first[key] != again.get(key):
                    problems.append(f"{w}: {key} {first[key]} then "
                                    f"{again.get(key)} for one seed")
            firsts.update(first)
        problems += check_trace_file(w)
        print(f"{w}: final_acc={firsts.get('final_acc')} "
              f"condensation.passes={firsts.get('condensation.passes')} "
              f"training.retrain_steps={firsts.get('training.retrain_steps')}")
    problems += check_bare_directory(spec)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
