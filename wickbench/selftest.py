#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (under a minute on two cores).

    python3 wickbench/selftest.py

Runs every workload's pipeline on a shrunken copy of its config and checks:
- each run is correct and prints exactly the metric names and units of
  BENCHMARK.json, end-to-end ones with --trace 0, per-layer ones with --trace 1;
- per-layer counts repeat exactly across two traced runs;
- tail_ensemble's outputs are byte-identical at --workers 1 and --workers 2
  (all but resolved_config.ini, which records the worker count);
- in a directory holding only BENCHMARK.json and wickbench/, the benchmark
  exits non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import configparser
import json
import os
import shutil
import subprocess
import sys

from run import COUNT_UNITS, HERE, ROOT, SRC, WORKLOADS, sha256_file

TOY = {
    "tail_ensemble": {"solver": {"cutoff": "4"}, "lab": {"samples": "1000", "steps": "16", "lambdas": "1.0,1.05,1.1,1.15,1.2"}},
    "wick_ensemble": {"solver": {"cutoff": "4", "dt": "0.015625"}, "lab": {"samples": "200"}},
    "picard_path": {
        "solver": {"cutoff": "8", "dt": "0.00390625", "u0": "white:0.02"},
        "noise": {"kind": "bessel", "matrix_file": ""},
    },
    "multiplier_scan": {"lab": {"cutoffs": "4,8,16"}},
}


def toy_config(workload: str, work: str) -> str:
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read(os.path.join(HERE, "workloads", f"{workload}.ini"))
    for section, keys in TOY[workload].items():
        for key, value in keys.items():
            cfg[section][key] = value
    path = os.path.join(work, f"{workload}.ini")
    with open(path, "w") as fh:
        cfg.write(fh)
    return path


def bench(root: str, args: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "wickbench", "run.py"), "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result: dict, specs: list[dict], label: str, problems: list[str]) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")


def worker_outputs(config: str, workers: int, out: str) -> dict:
    cmd = [sys.executable, "-m", "wickns.cli", "run", "--config", config, "--out", out, "--workers", str(workers)]
    subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC), check=True, capture_output=True, timeout=600)
    with open(os.path.join(out, "manifest.json")) as fh:
        outputs = json.load(fh)["outputs"]
    return {o["name"]: sha256_file(os.path.join(out, o["name"])) for o in outputs if o["name"] != "resolved_config.ini"}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    work = os.path.join(ROOT, ".wickbench", f"selftest-{os.getpid()}")
    os.makedirs(work)
    problems: list[str] = []
    try:
        for workload in WORKLOADS:
            config = toy_config(workload, work)
            args = ["--workload", workload, "--config", config]
            check_names(result_of(bench(ROOT, args + ["--trace", "0"])), spec["end_to_end"], workload, problems)
            traced = [result_of(bench(ROOT, args + ["--trace", "1"])) for _ in range(2)]
            for result in traced:
                check_names(result, spec["per_layer"], f"{workload} traced", problems)
            for name in counts:
                a, b = (r["metrics"][name]["value"] for r in traced)
                if a != b:
                    problems.append(f"{workload}: {name} {a} then {b}")
            print(f"selftest: {workload} done")

        config = os.path.join(work, "tail_ensemble.ini")
        one = worker_outputs(config, 1, os.path.join(work, "workers-1"))
        two = worker_outputs(config, 2, os.path.join(work, "workers-2"))
        if one != two:
            problems.append(f"tail_ensemble outputs depend on --workers: {one} vs {two}")

        bare = os.path.join(work, "bare")
        shutil.copytree(HERE, os.path.join(bare, "wickbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench(bare, ["--workload", WORKLOADS[0]])
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for line in problems:
        print(f"selftest: FAIL {line}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
