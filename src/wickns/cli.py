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

Exit codes: 0 success, 1 usage/config error, 2 runtime failure (partial
outputs plus a flagged manifest stay on disk), 3 a --assert check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from . import __version__
from .config import COMMANDS, ConfigError, ExperimentConfig, parse_config, parse_config_text
from .dynamics import gauge_transform, solve, wick_coeffs_block, wick_nonlinearity_direct, wick_trilinear, picard_iterate
from .fields import _csv_text, frequencies, make_field
from .lab import (
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


class _Writer:
    """Collects a run's output files in creation order, starting with
    resolved_config.ini, and seals them under one manifest."""

    def __init__(self, out_dir: str, cfg: ExperimentConfig):
        self.t0 = time.monotonic()
        self.out_dir = out_dir
        self.cfg = cfg
        self.names: list[str] = []
        os.makedirs(out_dir, exist_ok=True)
        self.text("resolved_config.ini", cfg.resolved)

    def text(self, name: str, body: str) -> None:
        with open(os.path.join(self.out_dir, name), "w") as fh:
            fh.write(body)
        self.names.append(name)

    def seal(self, command: str, flags: dict, task_seeds: dict) -> None:
        """Writes manifest.json: the run's wall time and a sha256 per output."""
        cfg = self.cfg
        man = RunManifest(
            command=command,
            seed=cfg.seed,
            workers=cfg.workers,
            resolved_config=cfg.resolved,
            code_version=__version__,
            flags=flags,
            task_seeds=task_seeds,
        )
        man.wall_time_s = time.monotonic() - self.t0
        for name in self.names:
            man.record_output(self.out_dir, name)
        man.write(self.out_dir)


@dataclass
class CommandResult:
    report: dict
    checks: list = dc_field(default_factory=list)  # (name, bool)
    flags: dict = dc_field(default_factory=dict)
    task_seeds: dict = dc_field(default_factory=dict)  # task label -> philox stream key
    failed: bool = False


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
    traj = sample_convolution_path(op, scfg.grid(), philox_stream(cfg.seed, 0))
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
    return CommandResult(
        report,
        checks=[("finite_path", math.isfinite(final_mass))],
        task_seeds={"path": [cfg.seed, 0]},
    )


def _cmd_solve(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    op = cfg.noise_operator()
    u0 = cfg.initial_field(scfg.cutoff)
    traj = solve(u0, op, scfg, nonlinearity="wick")
    w.text("trajectory.csv", trajectory_to_csv(traj))
    blowup = traj.failed_at is not None
    report = {
        "cutoff": scfg.cutoff,
        "dt": scfg.dt,
        "steps_completed": len(traj.times) - 1,
        "failed_at": traj.failed_at,
        "mass_initial": float(np.sum(np.abs(traj.states[0]) ** 2)),
        "mass_final": float(np.sum(np.abs(traj.states[-1]) ** 2)),
    }
    seeds = {"noise": [cfg.seed, 0]} if op is not None else {}
    seeds.update(cfg.u0_task_seeds())
    return CommandResult(
        report,
        checks=[("completed", not blowup)],
        flags={"blowup": blowup},
        task_seeds=seeds,
        failed=blowup,
    )


def _cmd_picard(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    op = cfg.noise_operator()
    u0 = cfg.initial_field(scfg.cutoff)
    params = cfg.picard_params()
    grid = scfg.grid()
    if op is not None:
        psi = sample_convolution_path(op, grid, philox_stream(cfg.seed, 0))
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
    ok = rep.converged and (rep.contraction_factor or 1.0) < 1.0
    seeds = {"noise": [cfg.seed, 0]} if op is not None else {}
    seeds.update(cfg.u0_task_seeds())
    return CommandResult(report, checks=[("contraction", ok)], task_seeds=seeds, failed=not rep.converged)


def _cmd_norms(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    op = cfg.noise_operator()
    u0 = cfg.initial_field(scfg.cutoff)
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
    if op is not None and params.p == 2.0:
        gv = next(r["value"] for r in records if r["norm_name"] == "gamma_radonifying")
        hv = next(r["value"] for r in records if r["norm_name"] == "hilbert_schmidt")
        checks.append(("gamma_matches_hs_at_p2", abs(gv - hv) <= 1e-12 * max(1.0, hv)))
    w.text("norms.csv", _csv_text("norm_name,value", zip(*[(r["norm_name"], r["value"]) for r in records])))
    # norm names are unique per run; flat copies keep sweep tables useful
    report = {"records": records}
    report.update({r["norm_name"]: r["value"] for r in records})
    return CommandResult(report, checks=checks, task_seeds=cfg.u0_task_seeds())


def _cmd_wick_check(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    cutoffs = cfg.get("lab", "cutoffs")
    nfields = cfg.get("lab", "fields")
    rows = []
    worst = 0.0
    for N in cutoffs:
        U = _complex_normal(philox_stream(cfg.seed, 1, N), (nfields, 2 * N + 1)) / np.sqrt(2.0)
        fft_vals = wick_coeffs_block(U, N)
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
    seeds = {str(N): [cfg.seed, 1, N] for N in cutoffs}
    return CommandResult(report, checks=[("forms_agree", worst <= 1e-12)], task_seeds=seeds)


def _cmd_gauge_check(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    u0 = cfg.initial_field(scfg.cutoff)
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
        gauged = gauge_transform(cubic_traj, sign=1)
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
    return CommandResult(report, checks=[("first_order_gauge_residual", ok)], task_seeds=cfg.u0_task_seeds())


def _cmd_tail_mc(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    op = _require_operator(cfg)
    params = cfg.xsb_params()
    rep = tail_estimate_mc(
        op,
        params,
        cfg.get("lab", "lambdas"),
        cfg.get("lab", "samples"),
        philox_stream(cfg.seed, 2),
        steps=cfg.get("lab", "steps"),
        workers=cfg.workers,
    )
    cols = [rep.multipliers, rep.lambda_values, rep.survivals, [int(u) for u in rep.usable]]
    w.text("tail_fit.csv", _csv_text("multiplier,lambda,survival,usable", cols))
    checks = [("gaussian_shape", rep.r_squared >= 0.9 and rep.slope < 0.0)]
    return CommandResult(asdict(rep), checks=checks, task_seeds={"ensemble": [cfg.seed, 2]})


def _cmd_variance_test(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    scfg = cfg.solver_config()
    rep = variance_invariance_test(
        cutoff=scfg.cutoff,
        T=scfg.horizon,
        dt=scfg.dt,
        samples=cfg.get("lab", "samples"),
        rng=philox_stream(cfg.seed, 3),
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
    return CommandResult(
        asdict(rep),
        checks=checks,
        flags={"blowup": rep.flagged},
        task_seeds={"ensemble": [cfg.seed, 3]},
        failed=rep.flagged,
    )


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
            philox_stream(cfg.seed, 4, N),
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
    ok = all(g < 2.0 for g in growth) if growth else True
    seeds = {str(N): [cfg.seed, 4, N] for N in cutoffs}
    return CommandResult(report, checks=[("p99_stable_under_doubling", ok)], task_seeds=seeds)


def _cmd_multiplier(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    params = cfg.xsb_params()
    cutoffs = cfg.get("lab", "cutoffs")
    reports = [multiplier_supremum_report(params, N) for N in cutoffs]
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
    ratio, argmax = divisor_bound_scan(limit, delta)
    report = {
        "limit": limit,
        "delta": delta,
        "max_ratio": ratio,
        "argmax": argmax,
        "argmax_divisor_count": divisor_count(argmax),
    }
    checks = [("ratio_at_least_one", ratio >= 1.0)]
    if delta == 0.5 and limit >= 12:
        checks.append(("sqrt3_peak_at_12", argmax == 12 and abs(ratio - math.sqrt(3.0)) <= 1e-12))
    return CommandResult(report, checks=checks)


def _cmd_criticality(cfg: ExperimentConfig, w: _Writer) -> CommandResult:
    d = cfg.get("lab", "d")
    rep = criticality_report(d, cfg.lab_p())
    checks = []
    if d == 1:
        cls = rep.classifications
        checks.append(
            ("white_noise_critical_in_d1", cls["snls_sobolev"] == "critical" and cls["snls_fourier_lebesgue"] == "critical")
        )
    return CommandResult(rep.as_dict(), checks=checks)


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


def _run_into(cfg: ExperimentConfig, out_dir: str, assert_checks: bool) -> int:
    w = _Writer(out_dir, cfg)
    try:
        result = HANDLERS[cfg.command](cfg, w)
    except ConfigError:
        raise
    except RUNTIME_ERRORS as exc:
        # a runtime failure keeps the outputs written so far under a flagged manifest
        print(f"wickns: error: {exc}", file=sys.stderr)
        result = CommandResult({}, flags={"error": str(exc)}, failed=True)
    else:
        report = dict(result.report)
        report["checks"] = {name: bool(ok) for name, ok in result.checks}
        w.text("report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    w.seal(cfg.command, result.flags, result.task_seeds)
    for name, ok in result.checks:
        print(f"{cfg.command}: check {name}: {'pass' if ok else 'FAIL'}")
    print(f"{cfg.command}: wrote {len(w.names)} outputs to {out_dir}")
    if result.failed:
        print(f"{cfg.command}: runtime failure (see manifest flags)", file=sys.stderr)
        return 2
    if assert_checks and not all(ok for _, ok in result.checks):
        bad = [name for name, ok in result.checks if not ok]
        print(f"{cfg.command}: assertion failed: {', '.join(bad)}", file=sys.stderr)
        return 3
    return 0


def _run_sweep(cfg: ExperimentConfig, out_dir: str, assert_checks: bool) -> int:
    axis = cfg.get("sweep", "axis")
    raw_values = cfg.get("sweep", "values")
    if not axis or not raw_values:
        raise ConfigError("[sweep] axis and values are required for sweep")
    if "." not in axis:
        raise ConfigError(f"[sweep] axis: expected section.key, got {axis!r}")
    section, key = axis.split(".", 1)
    values = [v.strip() for v in raw_values.split(",") if v.strip()]
    # every cell's config is checked before any cell runs
    children = [cfg.with_value(section, key, v) for v in values]
    w = _Writer(out_dir, cfg)

    def run_cell(i: int) -> int:
        # a failing cell must not abort the sweep; its row records the cell's exit code
        try:
            code = _run_into(children[i], os.path.join(out_dir, f"cell-{i:02d}"), assert_checks)
        except ConfigError as exc:
            print(f"sweep cell {i} ({axis}={values[i]}): config error: {exc}", file=sys.stderr)
            return 1
        except RUNTIME_ERRORS as exc:
            print(f"sweep cell {i} ({axis}={values[i]}): {exc}", file=sys.stderr)
            return 2
        if code == 2:
            print(f"sweep cell {i} ({axis}={values[i]}): runtime failure (see its manifest flags)", file=sys.stderr)
        return code

    # cells are pure given the config; completion order never touches output order
    if cfg.workers > 1 and len(values) > 1:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=min(cfg.workers, len(values))) as pool:
            codes = list(pool.map(run_cell, range(len(values))))
    else:
        codes = [run_cell(i) for i in range(len(values))]
    cells = [
        {"index": i, "value": values[i], "dir": f"cell-{i:02d}", "exit_code": codes[i]}
        for i in range(len(values))
    ]

    # aggregated table: one row per cell, scalar report entries as columns
    reports = []
    for cell in cells:
        try:
            with open(os.path.join(out_dir, cell["dir"], "report.json")) as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError):
            reports.append({})
    scalar_keys = sorted(
        {k for r in reports for k, v in r.items() if isinstance(v, (int, float, str, bool)) and v is not None}
    )
    rows = []
    for cell, rep in zip(cells, reports):
        row = [cell["index"], cell["value"], cell["exit_code"]]
        for k in scalar_keys:
            v = rep.get(k, "")
            row.append(v if isinstance(v, (int, float, str, bool)) else "")
        rows.append(tuple(row))
    w.text("sweep.csv", _csv_text(",".join(["index", "value", "exit_code", *scalar_keys]), zip(*rows)))
    summary = {"axis": axis, "values": values, "command": cfg.command, "cells": cells}
    w.text("sweep_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    w.seal(f"sweep:{cfg.command}", {"cells_failed": any(c != 0 for c in codes)}, {})
    print(f"sweep: {len(cells)} cells over {axis}, worst exit {max(codes, default=0)}")
    if any(c == 2 for c in codes):
        return 2
    if any(c == 1 for c in codes):
        return 1
    if assert_checks and any(c == 3 for c in codes):
        return 3
    return 0


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
        code = _run_into(cfg.with_overrides(command=old.command), base, assert_checks=False)
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
        cfg = cfg.with_overrides(command=command, seed=args.seed, workers=args.workers)
        # where outputs land is not part of the experiment's identity, so the
        # resolved config (and hence the manifest hash) never records --out
        out_dir = args.out or os.environ.get("WICKNS_OUT") or cfg.out
        if args.subcommand == "sweep":
            return _run_sweep(cfg, out_dir, args.assert_checks)
        return _run_into(cfg, out_dir, args.assert_checks)
    except ConfigError as exc:
        print(f"wickns: config error: {exc}", file=sys.stderr)
        return 1
    except RUNTIME_ERRORS as exc:
        print(f"wickns: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
