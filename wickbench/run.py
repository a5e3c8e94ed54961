#!/usr/bin/env python3
"""Benchmark of the `wickns` command line: each workload is one real CLI run.

    python3 wickbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--config PATH]

Run it from the root of a checkout; `wickns` is imported from the checkout's
src/ and nowhere else.  Workloads are wickbench/workloads/NAME.ini; the seed
defaults to the one in that file and is handed to `wickns --seed`.

--trace 0 repeats the workload in fresh child processes for S seconds (at
least three times) and reports the medians of the end-to-end metrics: set-up
(import plus config parse, also timed in set-up-only children between them),
wall time of `wickns.cli.main`, CPU time and peak memory of the child.
--trace 1 runs the same children with and without the span tracer
(tracer.py) and reports the per-layer metrics, medians over the traced
repetitions.  Every repetition is checked: exit code, the manifest's
sha256 of each output, the report checks and reference values pinned in
pins.json, and identical outputs across the repetitions of one run.
--config swaps in another config (the self-test's toy sizes) and skips the
pins, which hold only for the workload's own config.

pins.json, per workload, was taken at the commit that added the benchmark:
`checks` (report check outcomes) and `ranges` hold at every seed;
`default_seed_checks` and `reference` (report values, relative tolerance
1e-9) hold at `default_seed`, or at every seed when that is null.  `counts`
(every seed) and `default_seed_counts` are per-layer counts; a traced run
reports drift from them on stderr without failing, since a change to a layer
may move them legitimately.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics, with the names and units of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import configparser
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("tail_ensemble", "wick_ensemble", "picard_path", "multiplier_scan")
SETUP_ONLY_PER_REP = 2  # set-up-only children before each untraced CLI repetition
MIN_REPS = 3  # a median of three outvotes one disturbed repetition
RUN_DEADLINE_S = 170  # children still running then are killed, so a run ends within 180 s
RTOL = 1e-9  # relative tolerance of pinned reference values
COUNT_UNITS = ("count", "points", "flop", "bytes")  # per-layer units that must repeat exactly


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def spawn(mode: str, config: str, seed: int, work: str, tag: str, timeout: float) -> dict:
    """One child repetition; returns its result plus CPU time and peak RSS."""
    out = os.path.join(work, tag)
    result = os.path.join(work, tag + ".json")
    log = os.path.join(work, tag + ".log")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, config, str(seed), out, result]
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {
        "status": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "out": out,
        "log": log,
    }
    if proc.returncode == 0:
        with open(result) as fh:
            rep.update(json.load(fh))
    return rep


def _log_tail(rep: dict) -> str:
    with open(rep["log"]) as fh:
        return " | ".join(fh.read().strip().splitlines()[-3:])


def _close(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, int):
        return got == want
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


def at_default_seed(pins: dict, seed: int) -> bool:
    return pins["default_seed"] is None or seed == pins["default_seed"]


def check_rep(rep: dict, pins: dict | None, seed: int) -> tuple[list[str], tuple]:
    """Errors of one CLI repetition and the fingerprint of its outputs."""
    if rep["status"] != 0:
        return [f"child exited {rep['status']}: {_log_tail(rep)}"], ()
    if os.path.dirname(rep["wickns"]) != os.path.join(SRC, "wickns"):
        return [f"imported wickns from {rep['wickns']}, not from {SRC}"], ()
    if rep["exit"] != 0:
        return [f"wickns exited {rep['exit']}: {_log_tail(rep)}"], ()
    out = rep["out"]
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    errors = [
        f"{o['name']}: sha256 differs from the manifest"
        for o in manifest["outputs"]
        if sha256_file(os.path.join(out, o["name"])) != o["sha256"]
    ]
    if pins is not None:
        at_default = at_default_seed(pins, seed)
        checks = dict(pins["checks"], **(pins["default_seed_checks"] if at_default else {}))
        for name, want in checks.items():
            if report["checks"].get(name) != want:
                errors.append(f"check {name}: {report['checks'].get(name)}, pinned {want}")
        for key, want in (pins["reference"] if at_default else {}).items():
            if not _close(report.get(key), want):
                errors.append(f"{key} = {report.get(key)!r}, pinned {want!r}")
        for key, (lo, hi) in pins["ranges"].items():
            if not lo <= report.get(key, math.nan) <= hi:
                errors.append(f"{key} = {report.get(key)!r} outside [{lo}, {hi}]")
    return errors, tuple((o["name"], o["sha256"]) for o in manifest["outputs"])


class Run:
    """The repetitions of one benchmark run and their verdicts."""

    def __init__(self, config: str, seed: int, pins: dict | None, work: str):
        self.config, self.seed, self.pins, self.work = config, seed, pins, work
        self.reps: list[dict] = []
        self.errors: list[str] = []
        self.failed = 0
        self._fingerprint = None
        self._deadline = time.monotonic() + RUN_DEADLINE_S

    def _spawn(self, mode: str, tag: str) -> dict:
        timeout = max(0.0, self._deadline - time.monotonic())
        return spawn(mode, self.config, self.seed, self.work, tag, timeout)

    def cli_rep(self, mode: str) -> dict:
        rep = self._spawn(mode, f"{mode}-{len(self.reps)}")
        rep["mode"] = mode
        errors, fingerprint = check_rep(rep, self.pins, self.seed)
        if not errors:
            if self._fingerprint is None:
                self._fingerprint = fingerprint
            elif fingerprint != self._fingerprint:
                errors.append("outputs differ from the first repetition")
        shutil.rmtree(rep["out"], ignore_errors=True)
        rep["ok"] = not errors
        self.failed += bool(errors)
        self.errors += [f"rep {len(self.reps)} ({mode}): {e}" for e in errors]
        self.reps.append(rep)
        return rep

    def setup_rep(self, tag: str) -> dict:
        rep = self._spawn("setup", tag)
        if rep["status"] != 0:
            raise BenchError(f"set-up child exited {rep['status']}: {_log_tail(rep)}")
        return rep

    def ok(self, mode: str) -> list[dict]:
        return [r for r in self.reps if r["ok"] and r["mode"] == mode]


def measure(run: Run, seconds: float) -> dict:
    """Untraced repetitions: samples of each end-to-end metric."""
    run.setup_rep("warmup")  # compiles bytecode and fills the file cache; not timed
    setups = []
    start = time.perf_counter()
    while len(run.reps) < MIN_REPS or time.perf_counter() - start < seconds:
        setups += [run.setup_rep(f"setup-{len(setups)}")["setup_s"] for _ in range(SETUP_ONLY_PER_REP)]
        run.cli_rep("run")
    good = run.ok("run")
    if not good:
        return {}
    samples = {name: [r[name] for r in good] for name in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] += setups
    return samples


def measure_traced(run: Run, seconds: float, workers: int, count_names: list[str]) -> dict:
    """Untraced and traced repetitions: samples of each per-layer metric;
    counts, which must repeat exactly, once."""
    from tracer import layer_metrics

    run.setup_rep("warmup")
    modes = ["run", "trace", "trace"]
    start = time.perf_counter()
    while modes or time.perf_counter() - start < seconds:
        mode = modes.pop(0) if modes else ("run" if run.reps[-1]["mode"] == "trace" else "trace")
        run.cli_rep(mode)
    plain, traced = run.ok("run"), run.ok("trace")
    if not plain or not traced:
        return {}
    layers = [layer_metrics(r["spans"], r["fft_len"], workers) for r in traced]
    unstable = [name for name in count_names if len({m[name] for m in layers}) > 1]
    if unstable:
        run.errors.append(f"counts differ between traced repetitions: {', '.join(unstable)}")
        run.failed += 1
    samples = {name: [layers[0][name]] if name in count_names else [m[name] for m in layers] for name in layers[0]}
    samples["trace.overhead_ratio"] = [
        statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain) - 1.0
    ]
    return samples


def count_drift(metrics: dict, pins: dict, seed: int) -> list[str]:
    """Pinned per-layer counts that this run did not reproduce."""
    want = dict(pins["counts"], **(pins["default_seed_counts"] if at_default_seed(pins, seed) else {}))
    return [f"{k} = {metrics.get(k)}, pinned {v}" for k, v in want.items() if metrics.get(k) != v]


# ---------------------------------------------------------------------------
# machine facts


def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0 in bytes, keyed L1d, L2, L3."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        sizes[f"L{level}" + ("d" if kind == "Data" else "")] = int(size.rstrip("KMG")) * scale
    return sizes


def working_set_bytes(workload: str, cfg: configparser.ConfigParser) -> dict | None:
    """Arrays the hot kernel sweeps, computed from the config and the program's
    chunk sizes (500 paths per tail chunk, 64 per norm batch, one chunk of up
    to 2500 paths per variance ensemble, four (rows, L) arrays per Wick kernel
    call); complex128 throughout."""
    n = cfg.getint("solver", "cutoff", fallback=16)
    modes = 2 * n + 1
    if workload == "tail_ensemble":
        m = cfg.getint("lab", "steps")
        j = 4 * m + 1
        per_worker = 16 * (500 * (m + 1) * modes + 64 * modes * (j + 8 * j))
        return {"per_worker": per_worker, "workers": cfg.getint("run", "workers", fallback=1)}
    if workload == "wick_ensemble":
        steps = round(cfg.getfloat("solver", "horizon") / cfg.getfloat("solver", "dt"))
        rows = min(cfg.getint("lab", "samples"), 2500)
        fft = 1 << (4 * n).bit_length()  # power of two >= 4N + 1
        return {"noise_increments": 16 * rows * steps * modes, "wick_kernel_per_call": 4 * 16 * rows * fft}
    return None


def machine_facts(workload: str, cfg: configparser.ConfigParser) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cache_bytes": cache_sizes(),
    }
    ws = working_set_bytes(workload, cfg)
    if ws is not None:
        facts["working_set_bytes_computed"] = ws
    return facts


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, help="workload seed (default: the one in its config)")
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--config", help="run this config instead of the workload's own, without pins")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not os.path.isfile(os.path.join(SRC, "wickns", "__init__.py")):
        raise BenchError(f"no wickns sources under {SRC}")
    config = args.config or os.path.join(HERE, "workloads", f"{args.workload}.ini")
    config = os.path.relpath(os.path.abspath(config), ROOT)
    cfg = configparser.ConfigParser(interpolation=None)
    if not cfg.read(os.path.join(ROOT, config)):
        raise BenchError(f"cannot read {config}")
    pins = None
    if args.config is None:
        with open(os.path.join(HERE, "pins.json")) as fh:
            pins = json.load(fh)[args.workload]
    seed = args.seed if args.seed is not None else cfg.getint("run", "seed", fallback=0)
    if not 0 <= seed < 2**64:
        raise BenchError(f"seed must be an unsigned 64-bit value, got {seed}")
    workers = cfg.getint("run", "workers", fallback=1)

    work = os.path.join(ROOT, ".wickbench", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    run = Run(config, seed, pins, work)
    try:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            counts = [n for n in names if units[n] in COUNT_UNITS]
            samples = measure_traced(run, args.seconds, workers, counts)
        else:
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            samples = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for line in run.errors:
        print(f"wickbench: FAILED {line}", file=sys.stderr)
    if not samples:
        raise BenchError("no repetition succeeded")
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    if args.trace and pins:
        for line in count_drift(values, pins, seed):
            print(f"wickbench: count drift {line}", file=sys.stderr)

    attempted = len(run.reps)
    print(f"workload {args.workload}, seed {seed}, {attempted} repetitions, trace {args.trace}")
    for name in names:
        xs = samples[name]
        print(f"  {name:40s} median {values[name]:<12.6g} min {min(xs):<12.6g} max {max(xs):<12.6g} n {len(xs):<3d} {units[name]}")
    print(f"  {'error_rate':40s} {run.failed / attempted:.6g} failed/attempted")
    print(json.dumps({"machine": machine_facts(args.workload, cfg)}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"wickbench: {exc}", file=sys.stderr)
        sys.exit(2)
