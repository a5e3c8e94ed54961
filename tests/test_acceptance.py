"""Acceptance gate: one test per advertised guarantee, at desk scale.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Every statistical test uses a frozen seed; expected values were
derived from closed forms or independent brute-force prototypes, never from
the code under test.

Known red: test_c09a.  At p = 4 with b = 1/p' - 0.01 and b' = -1/p + 0.01
the kernel exponent 3(b - b')/p' - 2 collapses to zero exactly, so the
multiplier supremum grows with the cutoff instead of plateauing; the test
states the plateau requirement faithfully and fails by design.
"""

import math
import os

import numpy as np

from wickns.cli import main
from wickns.dynamics import SolverConfig, gauge_transform, picard_iterate, solve, wick_nonlinearity_direct, wick_trilinear
from wickns.fields import SpectralField, mode_field
from wickns.lab import (
    convolution_sum_check,
    criticality_report,
    divisor_bound_scan,
    lemma_exponent,
    multiplier_supremum_report,
    tail_estimate_mc,
    trilinear_ratio,
    variance_invariance_test,
)
from wickns.noise import Trajectory, bessel_operator, convolution_paths_block, make_grid, philox_stream
from wickns.norms import XsbParams, gamma_norm, homogeneous_estimate_check, temporal_window_factor


def test_c01_wick_dual_forms_agree():
    # 100 random fields per cutoff: trilinear split vs direct formula
    worst = 0.0
    for N in (4, 8, 16, 32):
        rng = philox_stream(101, N)
        dim = 2 * N + 1
        U = (rng.standard_normal((100, dim)) + 1j * rng.standard_normal((100, dim))) / np.sqrt(2.0)
        for row in U:
            u = SpectralField(N, row)
            direct = wick_nonlinearity_direct(u).coeffs
            nonres, res = wick_trilinear(u, u, u)
            split = nonres.coeffs + res.coeffs
            worst = max(worst, float(np.max(np.abs(direct - split))))
    assert worst <= 1e-12


def test_c02_convolution_variance_matches_ito_isometry():
    # per-mode mean |psi(t, n)|^2 must track |phi_n|^2 t within 4/sqrt(paths)
    grid = make_grid(1.0, 4)
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0):
        op = bessel_operator(16, alpha)
        states = convolution_paths_block(op, grid, philox_stream(1001), 10_000)
        rows = op.row_l2() ** 2
        for m in (1, 2, 4):
            emp = np.mean(np.abs(states[:, m, :]) ** 2, axis=0)
            worst = max(worst, float(np.max(np.abs(emp / (rows * grid[m]) - 1.0))))
    assert worst <= 0.04


def test_c03_per_mode_variance_tracks_one_plus_t():
    rep = variance_invariance_test(SolverConfig(16, 1 / 256, 0.5), 10_000, philox_stream(99), substeps=2, workers=2)
    assert not rep.flagged
    assert rep.max_rel_dev <= 0.05


def test_c04_gamma_norm_truncation_threshold():
    # s below alpha - 1/p saturates; s above keeps growing with the cutoff
    for alpha, s, p, convergent in (
        (1.0, 0.25, 2.0, True),
        (1.0, 0.75, 2.0, False),
        (0.75, 0.4, 4.0, True),
        (0.75, 0.6, 4.0, False),
    ):
        lo = gamma_norm(bessel_operator(2**13, alpha), s, p)
        hi = gamma_norm(bessel_operator(2**14, alpha), s, p)
        ratio = hi / lo
        if convergent:
            assert ratio < 1.01
        else:
            assert ratio > 1.05


def test_c05_windowed_free_flow_factorizes():
    # space-time norm of a windowed linear flow = temporal factor x datum norm
    params = XsbParams(0.4, 0.35, -0.2, 3.0, 2.5, 0.5)
    factor = temporal_window_factor(params, steps=64)
    rng = philox_stream(501)
    for _ in range(10):
        coeffs = (rng.standard_normal(33) + 1j * rng.standard_normal(33)) / np.sqrt(2.0)
        ratio = homogeneous_estimate_check(SpectralField(16, coeffs), params, steps=64)
        assert abs(ratio - factor) <= 1e-9 * factor


def test_c06_tail_rate_scales_with_window():
    # log-survival linear in lambda^2; fitted rate scales like T^-(3 - 2b - 2/q)
    op = bessel_operator(16, 0.75)
    lambdas = [1.0 + 0.05 * j for j in range(10)]
    horizons = (0.25, 0.5, 1.0)
    rates = []
    for i, T in enumerate(horizons):
        params = XsbParams(0.0, 0.45, -0.1, 2.0, 2.0, T)
        rep = tail_estimate_mc(op, params, lambdas, 10_000, philox_stream(2024, i), steps=32)
        assert rep.slope < 0.0
        assert rep.r_squared >= 0.9
        rates.append(rep.rate)
    theta = 3.0 - 2.0 * 0.45 - 2.0 / 2.0
    fitted = -float(np.polyfit(np.log(horizons), np.log(rates), 1)[0])
    assert abs(fitted - theta) <= 0.5


def test_c07_deterministic_convergence_and_gauge_order():
    # single mode: the flow is an exact phase rotation
    A, k, N, T = 0.7, 2, 8, 0.5
    exact = A * np.exp(-1j * (abs(A) ** 2 - k**2) * T)
    errs = []
    for j in range(5):
        cfg = SolverConfig(cutoff=N, dt=(1 / 32) / 2**j, horizon=T)
        traj = solve(mode_field(N, k, A), None, cfg, nonlinearity="wick")
        errs.append(abs(traj.states[-1][k + N] - exact))
    orders = [np.log2(errs[j] / errs[j + 1]) for j in range(4)]
    assert min(orders) >= 0.9

    # the gauge-transformed plain-cubic flow approaches the Wick flow at the same order
    u0 = SpectralField(N, [0] * N + [0.5, 0.3] + [0] * (N - 1))
    residuals = []
    for j in range(5):
        cfg = SolverConfig(cutoff=N, dt=(1 / 32) / 2**j, horizon=T)
        wick = solve(u0, None, cfg, nonlinearity="wick")
        cubic = solve(u0, None, cfg, nonlinearity="cubic")
        residuals.append(float(np.max(np.abs(wick.states - gauge_transform(cubic).states))))
    orders = [np.log2(residuals[j] / residuals[j + 1]) for j in range(4)]
    assert min(orders) >= 0.9


def test_c08_picard_contracts_and_tightens_as_horizon_halves():
    factors = []
    for T in (0.1, 0.05, 0.025):
        cfg = SolverConfig(cutoff=8, dt=T / 16, horizon=T, picard_tolerance=1e-12)
        psi = Trajectory(cfg.grid(), np.zeros((cfg.steps + 1, 17), dtype=complex))
        rep = picard_iterate(mode_field(8, 1, 0.1), psi, cfg, XsbParams(0.0, 0.3, -0.3, 2.0, 2.0, cfg.horizon))
        assert rep.converged
        assert max(rep.ratios) < 0.5
        factors.append(rep.contraction_factor)
    assert factors[0] > factors[1] > factors[2]


def test_c09a_multiplier_truncation_plateau():
    # plateau within 10% between cutoffs 64 and 128 at the stated exponents
    params = XsbParams(0.1, 0.74, -0.24, 4.0, 2.0, 0.5)
    lo = multiplier_supremum_report(params, 64)
    hi = multiplier_supremum_report(params, 128)
    assert abs(hi.value / lo.value - 1.0) <= 0.10


def test_c09b_trilinear_p99_stable_under_doubling():
    params = XsbParams(0.1, 0.74, -0.24, 4.0, 2.0, 0.5)
    p99 = []
    for N in (16, 32, 64):
        st = trilinear_ratio(200, params, N, philox_stream(606, N), alpha=0.75, steps=32)
        p99.append(st.p99)
    assert p99[1] / p99[0] < 2.0
    assert p99[2] / p99[1] < 2.0


def test_c10_arithmetic_lemmas():
    # decay-exponent regressions, one per branch of the three-case rule
    for beta, gamma, k1s in (
        (2.0, 0.6, [2**j for j in range(0, 9)]),
        (1.0, 0.6, [2**j for j in range(6, 14)]),
        (0.7, 0.7, [2**j for j in range(6, 14)]),
    ):
        lhs = [convolution_sum_check(beta, gamma, k, 0, 2**17)[0] for k in k1s]
        logs = np.log([math.hypot(1.0, k) for k in k1s])
        slope = float(np.polyfit(logs, np.log(lhs), 1)[0])
        assert abs(slope + lemma_exponent(beta, gamma)) <= 0.15

    # divisor bound: the scan to 1e6 peaks at 12 with ratio sqrt(3)
    ratio, argmax = divisor_bound_scan(10**6, 0.5)
    assert argmax == 12
    assert abs(ratio - math.sqrt(3.0)) <= 1e-12

    # modulation-defect factorization, exact in int64 on 1e6 random triples
    rng = philox_stream(424242)
    n1, n2, n3 = rng.integers(-(10**6), 10**6 + 1, size=(3, 10**6))
    n = n1 - n2 + n3
    defects = n * n - n1 * n1 + n2 * n2 - n3 * n3 - 2 * (n - n1) * (n - n3)
    assert int(np.max(np.abs(defects))) == 0


def test_c11_criticality_table():
    rep = criticality_report(1, 2.0)
    assert rep.classifications["snls_sobolev"] == "critical"
    assert rep.classifications["snls_fourier_lebesgue"] == "critical"
    for p in (1.5, 2.0, 4.0, 8.0, math.inf):
        assert criticality_report(1, p).classifications["snls_fourier_lebesgue"] == "critical"
    ladder = [criticality_report(d).classifications["sqe"] for d in (1, 2, 3, 4, 5)]
    assert ladder == ["subcritical", "subcritical", "subcritical", "critical", "supercritical"]


def test_c12_manifest_rerun_and_worker_independence(tmp_path):
    # any manifest rerun is byte-identical
    cfg = tmp_path / "wick.ini"
    cfg.write_text("[run]\ncommand = wick-check\nseed = 2\n\n[lab]\ncutoffs = 4, 8\nfields = 5\n")
    out = tmp_path / "orig"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    replay = tmp_path / "replay"
    assert main(["rerun", "--manifest", str(out / "manifest.json"), "--out", str(replay)]) == 0
    for name in ("resolved_config.ini", "wick_check.csv", "report.json"):
        assert (replay / name).read_bytes() == (out / name).read_bytes()

    # ensemble outputs independent of the worker count
    tail = tmp_path / "tail.ini"
    tail.write_text(
        "[run]\ncommand = tail-mc\nseed = 31\n\n[solver]\ncutoff = 8\n\n"
        "[noise]\nalpha = 0.75\n\n[norms]\nb = 0.45\nbprime = -0.1\nt = 0.25\n\n"
        "[lab]\nsamples = 1000\nsteps = 16\nlambdas = 1.0,1.05,1.1,1.15,1.2\n"
    )
    w1, w3 = tmp_path / "w1", tmp_path / "w3"
    assert main(["run", "--config", str(tail), "--out", str(w1), "--workers", "1"]) == 0
    assert main(["run", "--config", str(tail), "--out", str(w3), "--workers", "3"]) == 0
    for name in ("tail_fit.csv", "report.json"):
        assert (w1 / name).read_bytes() == (w3 / name).read_bytes()
