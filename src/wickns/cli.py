"""`wickns`: run one configured experiment, leave a replayable trail.

    wickns <subcommand> --config cfg.ini [--out DIR] [--seed N]
                        [--workers K] [--assert]
    wickns rerun --manifest DIR/manifest.json [--out DIR]

Every run writes, into the output directory: `resolved_config.ini` (defaults
materialized), the command's CSV tables, `report.json` (including named
boolean checks), and `manifest.json` with a sha256 per output.  Outputs are
deterministic in (config, seed) and independent of --workers; `rerun`
replays a manifest and verifies the hashes byte for byte.  WICKNS_OUT is
the only environment override (output directory; the --out flag wins).
Importing the package defaults OPENBLAS_NUM_THREADS to 1 unless it is set,
so the CLI runs OpenBLAS on one thread; the only parallelism is --workers.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure (partial
outputs plus a flagged manifest stay on disk; a command exits 2 exactly when
its manifest carries a truthy flag), 3 a --assert check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from . import __version__
from .config import COMMANDS, ConfigError, ExperimentConfig, _keyed, parse_config, parse_config_text
from .dynamics import gauge_transform, solve, wick_coeffs_block, wick_nonlinearity_direct, wick_trilinear, picard_iterate
from .fields import _csv_text, frequencies, make_field
from .lab import (
    _pool_map,
    convolution_sum_check,
    criticality_report,
    divisor_bound_scan,
    divisor_count,
    lemma_exponent,
    multiplier_supremum_report,
    tail_estimate_mc,
    trilinear_ratio,
    variance_invariance_test,
)
from .manifest import RunManifest, compare_outputs
from .noise import (
    Trajectory,
    _complex_normal,
    philox_stream,
    sample_convolution_path,
    operator_to_csv,
    trajectory_to_csv,
)
from .norms import fl_norm, gamma_norm, homogeneous_estimate_check, hs_norm, operator_norm, temporal_window_factor

__all__ = ["main"]

# what a run may raise at run time (exit 2, flagged manifest); a ConfigError,
# itself a ValueError, is caught before these and exits 1
RUNTIME_ERRORS = (ValueError, OSError, ArithmeticError)
WRITE_SLICE = 1 << 20  # characters handed to a text file per write


class _Writer:
    """Records a run's output files in creation order, starting with
    resolved_config.ini, and the Philox streams it draws, straight into the
    run's manifest.  A manifest an earlier run left in out_dir is removed
    first, so a run that ends before sealing leaves none that vouches for the
    new files.  It also notes what it creates, for `discard`."""

    def __init__(self, out_dir: str, cfg: ExperimentConfig):
        self.t0 = time.monotonic()
        self.out_dir = out_dir
        self.man = RunManifest(
            command=cfg.command, seed=cfg.seed, workers=cfg.workers, resolved_config=cfg.resolved, code_version=__version__
        )
        self.made_dir = not os.path.isdir(out_dir)
        self.created = []  # paths of files that did not exist before this run wrote them
        os.makedirs(out_dir, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, "manifest.json"))
        self.text("resolved_config.ini", self.man.resolved_config)

    def text(self, name: str, body: str) -> None:
        path = os.path.join(self.out_dir, name)
        if not os.path.exists(path):
            self.created.append(path)
        # in slices, so the text layer never encodes a bytes copy of a whole table
        with open(path, "w") as fh:
            for lo in range(0, len(body), WRITE_SLICE):
                fh.write(body[lo : lo + WRITE_SLICE])
        self.man.record_output(self.out_dir, name)

    def stream(self, label: str, *key: int) -> np.random.Generator:
        """The Philox stream (seed, *key), recorded as task_seeds[label]."""
        self.man.task_seeds[label] = [self.man.seed, *key]
        return philox_stream(self.man.seed, *key)

    def discard(self) -> None:
        """Removes the files this run created, and out_dir if this run made
        it and it is left empty, so a config error leaves what a parse-time
        one leaves.  A file the run overwrote cannot be restored; it stays."""
        for path in self.created:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        if self.made_dir:
            with contextlib.suppress(OSError):
                os.rmdir(self.out_dir)

    def seal(self, command: str, flags: dict) -> None:
        """Writes manifest.json with the run's command, flags and wall time."""
        self.man.command = command
        self.man.flags = flags
        self.man.wall_time_s = time.monotonic() - self.t0
        self.man.write(self.out_dir)


@dataclass
class CommandResult:
    report: dict
    checks: list = dc_field(default_factory=list)  # (name, bool)
    flags: dict = dc_field(default_factory=dict)  # any truthy value makes the run exit 2


# ---------------------------------------------------------------------------
# command handlers


def _require_operator(cfg: ExperimentConfig):
    op = cfg.noise_operator()
    if op is None:
        raise ConfigError("[noise] kind: this command needs a noise operator, got 'none'")
    return op


def _cmd_sample_noise(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    op = _require_operator(cfg)
    traj = sample_convolution_path(op, scfg.grid(), w.stream("path", 0))
    w.text("psi.csv", trajectory_to_csv(traj))
    if op.is_multiplier:
        w.text("phi.csv", operator_to_csv(op))
    final_mass = float(np.sum(np.abs(traj.states[-1]) ** 2))
    mean_mass = float(scfg.horizon * np.sum(op.row_l2() ** 2))
    report = {
        "cutoff": scfg.cutoff,
        "steps": scfg.steps,
        "horizon": scfg.horizon,
        "final_mass": final_mass,
        "mean_final_mass": mean_mass,
    }
    return CommandResult(report, checks=[("finite_path", math.isfinite(final_mass))])


def _cmd_solve(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    op = cfg.noise_operator()
    u0 = cfg.initial_field(w.stream)
    rng = w.stream("noise", 0) if op is not None else None
    traj = solve(u0, op, scfg, nonlinearity="wick", rng=rng)
    w.text("trajectory.csv", trajectory_to_csv(traj))
    blowup = traj.failed_at is not None
    with np.errstate(over="ignore"):  # the mass of a huge finite state is inf
        report = {
            "cutoff": scfg.cutoff,
            "dt": scfg.dt,
            "steps_completed": len(traj.times) - 1,
            "failed_at": traj.failed_at,
            "mass_initial": float(np.sum(np.abs(traj.states[0]) ** 2)),
            "mass_final": float(np.sum(np.abs(traj.states[-1]) ** 2)),
        }
    return CommandResult(report, checks=[("completed", not blowup)], flags={"blowup": blowup})


def _cmd_picard(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    op = cfg.noise_operator()
    u0 = cfg.initial_field(w.stream)
    params = cfg.picard_params()
    grid = scfg.grid()
    if op is not None:
        psi = sample_convolution_path(op, grid, w.stream("noise", 0))
    else:
        psi = Trajectory(grid, np.zeros((scfg.steps + 1, 2 * scfg.cutoff + 1), dtype=np.complex128))
    rep = picard_iterate(u0, psi, scfg, params)
    w.text("trajectory.csv", trajectory_to_csv(rep.solution))
    rows = []
    for i, d in enumerate(rep.differences):
        ratio = rep.ratios[i - 1] if i >= 1 else ""
        rows.append((i + 1, d, ratio))
    w.text("picard_differences.csv", _csv_text("iteration,difference,ratio", zip(*rows)))
    report = {
        "iterations": rep.iterations,
        "converged": rep.converged,
        "non_contracting": rep.non_contracting,
        "contraction_factor": rep.contraction_factor,
        "differences": rep.differences,
    }
    # no positive ratio (a run that converged at once) leaves no factor to bound
    ok = rep.converged and (rep.contraction_factor is None or rep.contraction_factor < 1.0)
    flags = {} if rep.converged else {"not_converged": True}
    if rep.non_finite:
        flags["non_finite"] = True
    return CommandResult(report, checks=[("contraction", ok)], flags=flags)


def _cmd_norms(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    op = cfg.noise_operator()
    u0 = cfg.initial_field(w.stream)
    params = cfg.xsb_params()
    steps = cfg.get("norms", "window_steps")
    records = []

    def rec(name, p, value):
        records.append({"norm_name": name, "params": p, "value": float(value)})

    flv = fl_norm(u0, params.s, params.p)
    rec("fourier_lebesgue", {"s": params.s, "p": params.p}, flv)
    if op is not None:
        rec("gamma_radonifying", {"s": params.s, "p": params.p}, gamma_norm(op, params.s, params.p))
        rec("hilbert_schmidt", {"s": params.s}, hs_norm(op, params.s))
        rec("operator_l2", {}, operator_norm(op))
    wf = temporal_window_factor(params, steps=steps)
    rec("window_factor", {"b": params.b, "q": params.q, "T": params.T}, wf)
    checks = []
    if flv > 0:
        ratio = homogeneous_estimate_check(u0, params, steps=steps)
        rec("free_flow_ratio", {"s": params.s, "b": params.b, "p": params.p, "q": params.q, "T": params.T}, ratio)
        checks.append(("free_flow_factorizes", abs(ratio - wf) <= 1e-8 * max(wf, 1.0)))
    w.text("norms.csv", _csv_text("norm_name,value", zip(*[(r["norm_name"], r["value"]) for r in records])))
    # norm names are unique per run; flat copies keep sweep tables useful
    report = {"records": records}
    report.update({r["norm_name"]: r["value"] for r in records})
    return CommandResult(report, checks=checks)


def _cmd_wick_check(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    cutoffs = cfg.get("lab", "cutoffs")
    nfields = cfg.get("lab", "fields")
    rows = []
    worst = 0.0
    for N in cutoffs:
        U = _complex_normal(w.stream(str(N), 1, N), (nfields, 2 * N + 1)) / np.sqrt(2.0)
        fft_vals = wick_coeffs_block(U)
        d_conv = 0.0
        d_split = 0.0
        for i in range(nfields):
            u = make_field(N, U[i])
            conv = wick_nonlinearity_direct(u).coeffs
            split = wick_trilinear(u, u, u).total.coeffs
            d_conv = max(d_conv, float(np.max(np.abs(fft_vals[i] - conv))))
            d_split = max(d_split, float(np.max(np.abs(fft_vals[i] - split))))
        rows.append((N, d_conv, d_split))
        worst = max(worst, d_conv, d_split)
    w.text("wick_check.csv", _csv_text("cutoff,max_discrepancy_conv,max_discrepancy_split", zip(*rows)))
    report = {
        "cutoffs": list(cutoffs),
        "fields_per_cutoff": nfields,
        "max_discrepancy": worst,
    }
    return CommandResult(report, checks=[("forms_agree", worst <= 1e-12)])


def _cmd_gauge_check(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    u0 = cfg.initial_field(w.stream)
    halvings = cfg.get("lab", "dt_halvings")
    rows = []
    residuals = []
    for k in range(halvings):
        sk = replace(scfg, dt=scfg.dt / 2**k)
        wick_traj = solve(u0, None, sk, nonlinearity="wick")
        cubic_traj = solve(u0, None, sk, nonlinearity="cubic")
        for flow, traj in (("wick", wick_traj), ("cubic", cubic_traj)):
            if traj.failed_at is not None:
                raise ValueError(f"{flow} flow blew up after t = {traj.failed_at} at dt = {sk.dt}")
        gauged = gauge_transform(cubic_traj)
        r = float(np.max(np.abs(wick_traj.states - gauged.states)))
        order = math.log2(residuals[-1] / r) if residuals and r > 0 else ""
        residuals.append(r)
        rows.append((sk.dt, r, order))
    w.text("gauge_residuals.csv", _csv_text("dt,residual,order", zip(*rows)))
    orders = [row[2] for row in rows if row[2] != ""]
    report = {
        "dts": [row[0] for row in rows],
        "residuals": residuals,
        "orders": orders,
    }
    ok = bool(orders) and min(orders) >= 0.9
    if residuals[0] == 0.0:
        # zero datum: both flows are exactly zero, the ladder carries no signal
        ok = all(r == 0.0 for r in residuals)
    return CommandResult(report, checks=[("first_order_gauge_residual", ok)])


def _cmd_tail_mc(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    op = _require_operator(cfg)
    lab_args = {k: cfg.get("lab", k) for k in ("lambdas", "samples", "steps")}
    keys = {"lambdas": "[lab] lambdas", "samples": "[lab] samples", "need": "[norms] b"}
    # tail_estimate_mc checks its ranges before it draws a path; each error names its key
    rep = _keyed(tail_estimate_mc, keys, op=op, params=cfg.xsb_params(), rng=w.stream("ensemble", 2), workers=cfg.workers, **lab_args)
    cols = [rep.multipliers, rep.lambda_values, rep.survivals, [int(u) for u in rep.usable]]
    w.text("tail_fit.csv", _csv_text("multiplier,lambda,survival,usable", cols))
    checks = [("gaussian_shape", rep.r_squared >= 0.9 and rep.slope < 0.0)]
    return CommandResult(asdict(rep), checks=checks)


def _cmd_variance_test(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    rep = _keyed(
        variance_invariance_test,
        {"horizon/dt": "[solver] dt"},
        cutoff=scfg.cutoff,
        T=scfg.horizon,
        dt=scfg.dt,
        samples=cfg.get("lab", "samples"),
        rng=w.stream("ensemble", 3),
        substeps=cfg.get("lab", "substeps"),
        workers=cfg.workers,
    )
    ns = frequencies(scfg.cutoff)
    rows = []
    for t, per_mode in zip(rep.times, rep.variances):
        for n, v in zip(ns, per_mode):
            rows.append((t, int(n), v, rep.target(t)))
    w.text("variance.csv", _csv_text("t,n,variance,target", zip(*rows)))
    checks = [("variance_tracks_1_plus_t", rep.max_rel_dev <= 0.05 and not rep.flagged)]
    return CommandResult(asdict(rep), checks=checks, flags={"blowup": rep.flagged})


def _cmd_trilinear(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    params = cfg.xsb_params()
    cutoffs = cfg.get("lab", "cutoffs")
    alpha = cfg.data_alpha()
    stats = []
    for N in cutoffs:
        st = trilinear_ratio(
            cfg.get("lab", "ensemble_size"),
            params,
            N,
            w.stream(str(N), 4, N),
            alpha=alpha,
            steps=cfg.get("lab", "steps"),
        )
        stats.append(st)
    rows = [(N, s.count, s.filtered, s.mean, s.p50, s.p90, s.p99, s.max) for N, s in zip(cutoffs, stats)]
    w.text("trilinear.csv", _csv_text("cutoff,count,filtered,mean,p50,p90,p99,max", zip(*rows)))
    growth = [stats[i + 1].p99 / stats[i].p99 for i in range(len(stats) - 1)]
    report = {
        "cutoffs": list(cutoffs),
        "stats": [asdict(s) for s in stats],
        "p99_growth_factors": growth,
    }
    ok = bool(growth) and all(g < 2.0 for g in growth)
    return CommandResult(report, checks=[("p99_stable_under_doubling", ok)])


def _cmd_multiplier(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    params = cfg.xsb_params()
    cutoffs = cfg.get("lab", "cutoffs")
    if 0 in cutoffs[:-1]:
        # every (n1, n3) pair is diagonal at cutoff 0, so the supremum there is 0
        raise ConfigError("[lab] cutoffs: 0 may come only last, the supremum at cutoff 0 is 0 and the next ratio divides by it")
    reports = [_keyed(multiplier_supremum_report, {"need": "[norms] b, bprime, p"}, params=params, cutoff=N) for N in cutoffs]
    rows = [(r.cutoff, r.value, r.arg_n, r.arg_tau) for r in reports]
    w.text("multiplier.csv", _csv_text("cutoff,value,arg_n,arg_tau", zip(*rows)))
    ratios = [reports[i + 1].value / reports[i].value for i in range(len(reports) - 1)]
    report = {
        "cutoffs": list(cutoffs),
        "values": [r.value for r in reports],
        "ratios": ratios,
        "kernel_exponent": reports[0].kernel_exponent,
        "kernel_window_ok": reports[0].kernel_window_ok,
    }
    ok = bool(ratios) and ratios[-1] <= 1.25
    return CommandResult(report, checks=[("supremum_saturates", ok)])


def _cmd_sums(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    beta = cfg.get("lab", "beta")
    gamma = cfg.get("lab", "gamma")
    k2 = cfg.get("lab", "k2")
    cutoff = cfg.get("lab", "sum_cutoff")
    rows = []
    for k1 in cfg.get("lab", "k1_values"):
        lhs, shape = convolution_sum_check(beta, gamma, k1, k2, cutoff)
        rows.append((k1, k2, lhs, shape))
    w.text("sums.csv", _csv_text("k1,k2,lhs,bound_shape", zip(*rows)))
    pts = [(abs(r[0] - k2), r[2]) for r in rows if abs(r[0] - k2) >= 64 and r[2] > 0]
    predicted = -lemma_exponent(beta, gamma)
    fitted = None
    if len(pts) >= 2:
        x = np.log([math.hypot(1.0, d) for d, _ in pts])
        y = np.log([v for _, v in pts])
        fitted = float(np.polyfit(x, y, 1)[0])
    report = {
        "beta": beta,
        "gamma": gamma,
        "k2": k2,
        "cutoff": cutoff,
        "predicted_exponent": predicted,
        "fitted_exponent": fitted,
    }
    ok = fitted is not None and abs(fitted - predicted) <= 0.1
    return CommandResult(report, checks=[("exponent_matches_rule", ok)])


def _cmd_divisors(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    limit = cfg.get("lab", "limit")
    delta = cfg.get("lab", "delta")
    # a range error names its key, before the sieve runs
    ratio, argmax = _keyed(divisor_bound_scan, {"limit": "[lab] limit", "delta": "[lab] delta"}, limit=limit, delta=delta)
    count = divisor_count(argmax)  # trial division, independent of the sieve
    report = {
        "limit": limit,
        "delta": delta,
        "max_ratio": ratio,
        "argmax": argmax,
        "argmax_divisor_count": count,
    }
    checks = [("count_matches_trial_division", abs(ratio - count / argmax**delta) <= 1e-12 * ratio)]
    if delta == 0.5 and limit >= 12:
        checks.append(("sqrt3_peak_at_12", argmax == 12 and abs(ratio - math.sqrt(3.0)) <= 1e-12))
    return CommandResult(report, checks=checks)


def _cmd_criticality(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    return CommandResult(criticality_report(cfg.get("lab", "d"), cfg.lab_p()).as_dict())


HANDLERS = {
    "sample-noise": _cmd_sample_noise,
    "solve": _cmd_solve,
    "picard": _cmd_picard,
    "norms": _cmd_norms,
    "wick-check": _cmd_wick_check,
    "gauge-check": _cmd_gauge_check,
    "tail-mc": _cmd_tail_mc,
    "variance-test": _cmd_variance_test,
    "trilinear": _cmd_trilinear,
    "multiplier": _cmd_multiplier,
    "sums": _cmd_sums,
    "divisors": _cmd_divisors,
    "criticality": _cmd_criticality,
}


# ---------------------------------------------------------------------------
# orchestration


def _run_into(cfg: ExperimentConfig, out_dir: str, assert_checks: bool) -> tuple[int, dict]:
    """Runs one command into out_dir; returns its exit code and the report it
    wrote to report.json ({} when it wrote none)."""
    w = _Writer(out_dir, cfg)
    report = {}
    try:
        result = HANDLERS[cfg.command](cfg, w)
    except ConfigError:
        w.discard()
        raise
    except RUNTIME_ERRORS as exc:
        # a runtime failure keeps the outputs written so far under a flagged manifest
        msg = str(exc) or type(exc).__name__
        print(f"wickns: error: {msg}", file=sys.stderr)
        result = CommandResult({}, flags={"error": msg})
    else:
        report = dict(result.report)
        report["checks"] = {name: bool(ok) for name, ok in result.checks}
        w.text("report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    w.seal(cfg.command, result.flags)
    for name, ok in result.checks:
        print(f"{cfg.command}: check {name}: {'pass' if ok else 'FAIL'}")
    print(f"{cfg.command}: wrote {len(w.man.outputs)} outputs to {out_dir}")
    if any(result.flags.values()):
        print(f"{cfg.command}: runtime failure (see manifest flags)", file=sys.stderr)
        return 2, report
    if assert_checks and not all(ok for _, ok in result.checks):
        bad = [name for name, ok in result.checks if not ok]
        print(f"{cfg.command}: assertion failed: {', '.join(bad)}", file=sys.stderr)
        return 3, report
    return 0, report


def _run_sweep(cfg: ExperimentConfig, out_dir: str, assert_checks: bool) -> int:
    axis = cfg.get("sweep", "axis")
    raw_values = cfg.get("sweep", "values")
    if not axis or not raw_values:
        raise ConfigError("[sweep] axis and values are required for sweep")
    if "." not in axis:
        raise ConfigError(f"[sweep] axis: expected section.key, got {axis!r}")
    section, key = axis.split(".", 1)
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"[sweep] values: no value in {raw_values!r}")
    # every cell's config is checked before any cell runs
    children = [cfg.with_value(section, key, v) for v in values]
    w = _Writer(out_dir, cfg)

    def run_cell(i: int) -> tuple[int, dict]:
        # a failing cell must not abort the sweep; its row records the cell's exit code
        try:
            code, report = _run_into(children[i], os.path.join(out_dir, f"cell-{i:02d}"), assert_checks)
        except ConfigError as exc:
            print(f"sweep cell {i} ({axis}={values[i]}): config error: {exc}", file=sys.stderr)
            return 1, {}
        except RUNTIME_ERRORS as exc:
            print(f"sweep cell {i} ({axis}={values[i]}): {exc}", file=sys.stderr)
            return 2, {}
        if code == 2:
            print(f"sweep cell {i} ({axis}={values[i]}): runtime failure (see its manifest flags)", file=sys.stderr)
        return code, report

    # cells are pure given the config; completion order never touches output order
    codes, reports = zip(*_pool_map(run_cell, len(values), cfg.workers))
    cells = [
        {"index": i, "value": values[i], "dir": f"cell-{i:02d}", "exit_code": codes[i]}
        for i in range(len(values))
    ]

    # aggregated table: one row per cell, the scalar report entries as columns
    scalar = (int, float, str, bool)
    keys = sorted({k for r in reports for k, v in r.items() if isinstance(v, scalar)})
    columns = [range(len(values)), values, codes]
    columns += [[r[k] if isinstance(r.get(k), scalar) else "" for r in reports] for k in keys]
    w.text("sweep.csv", _csv_text(",".join(["index", "value", "exit_code", *keys]), columns))
    summary = {"axis": axis, "values": values, "command": cfg.command, "cells": cells}
    w.text("sweep_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    w.seal(f"sweep:{cfg.command}", {"cells_failed": 2 in codes})
    # a runtime failure outranks a config error, which outranks a failed --assert check
    code = next((c for c in (2, 1, 3) if c in codes), 0)
    print(f"sweep: {len(cells)} cells over {axis}, worst exit {code}")
    return code


def _cmd_rerun(args) -> int:
    """Replay a manifest: exit 0 only when the replay exits 0, records the
    same flags and reproduces every recorded hash; otherwise exit 2."""
    old = RunManifest.load(args.manifest)
    base = args.out or os.environ.get("WICKNS_OUT")
    if base is None:
        base = os.path.dirname(os.path.abspath(args.manifest)) + "-rerun"
    cfg = parse_config_text(old.resolved_config, origin=args.manifest)
    if old.command.startswith("sweep:"):
        code = _run_sweep(cfg, base, assert_checks=False)
    else:
        code, _ = _run_into(cfg.with_value("run", "command", old.command), base, assert_checks=False)
    new = RunManifest.load(os.path.join(base, "manifest.json"))
    problems = [f"replay exited {code}"] if code else []
    if new.flags != old.flags:
        problems.append(f"flags differ: recorded {old.flags}, replay {new.flags}")
    bad = compare_outputs(old, base)
    if bad:
        problems.append(f"outputs differ: {', '.join(bad)}")
    if problems:
        print(f"rerun: {'; '.join(problems)}", file=sys.stderr)
        return 2
    print(f"rerun: {len(old.outputs)} outputs reproduced byte-identically in {base}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 1 for those."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="wickns", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"wickns {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name in ("run", "sweep", *COMMANDS):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", help="output directory (beats WICKNS_OUT and [run] out)")
        sp.add_argument("--seed", type=int, help="master seed, unsigned 64-bit")
        sp.add_argument("--workers", type=int, help="worker threads for ensemble commands")
        sp.add_argument("--assert", dest="assert_checks", action="store_true", help="exit 3 unless every check passes")
    rr = sub.add_parser("rerun")
    rr.add_argument("--manifest", required=True, help="manifest.json of the run to replay")
    rr.add_argument("--out", help="directory for the replay outputs")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "rerun":
            return _cmd_rerun(args)
        cfg = parse_config(args.config)
        command = None if args.subcommand in ("run", "sweep") else args.subcommand
        for key, raw in (("command", command), ("seed", args.seed), ("workers", args.workers)):
            if raw is not None:
                cfg = cfg.with_value("run", key, raw)
        # where outputs land is not part of the experiment's identity, so the
        # resolved config (and hence the manifest hash) never records --out
        out_dir = args.out or os.environ.get("WICKNS_OUT") or cfg.out
        if args.subcommand == "sweep":
            return _run_sweep(cfg, out_dir, args.assert_checks)
        return _run_into(cfg, out_dir, args.assert_checks)[0]
    except ConfigError as exc:
        print(f"wickns: config error: {exc}", file=sys.stderr)
        return 1
    except RUNTIME_ERRORS as exc:
        print(f"wickns: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
