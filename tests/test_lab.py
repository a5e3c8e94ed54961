import copy
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from wickns import (
    SolverConfig,
    XsbParams,
    bessel_operator,
    bracket,
    convolution_paths_block,
    convolution_sum_check,
    criticality_report,
    divisor_bound_scan,
    divisor_count,
    lemma_exponent,
    make_grid,
    multiplier_supremum_report,
    philox_stream,
    tail_estimate_mc,
    trilinear_forcing_block,
    trilinear_ratio,
    variance_invariance_test,
    wick_trilinear,
    xsb_norm_batch,
)
import wickns
from wickns import lab, noise
from wickns.dynamics import evolve_wick_rk4ip
from wickns.noise import _complex_normal, _draw_increments
from conftest import random_field, traced_peak


# ---------------------------------------------------------------------------
# divisor arithmetic


def test_divisor_count_values():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(360) == 24
    assert divisor_count(720720) == 240
    with pytest.raises(ValueError):
        divisor_count(0)


def test_divisor_scan_monotone_in_delta():
    lo, _ = divisor_bound_scan(100_000, 0.5)
    hi, _ = divisor_bound_scan(100_000, 0.6)
    assert hi < lo
    assert lo <= 2.0


def test_divisor_scan_argmax_highly_composite():
    ratio, arg = divisor_bound_scan(100_000, 0.5)
    # at delta = 1/2 the maximizer is the highly composite n = 12: d(12)/sqrt(12) = sqrt(3)
    assert arg == 12
    assert ratio == pytest.approx(np.sqrt(3.0), rel=1e-12)
    with pytest.raises(ValueError):
        divisor_bound_scan(0, 0.5)
    with pytest.raises(ValueError):
        divisor_bound_scan(10, 0.0)


# ---------------------------------------------------------------------------
# two-factor lattice sums


def test_lemma_exponent_cases():
    assert lemma_exponent(2.0, 0.6) == 0.6
    assert lemma_exponent(1.0, 0.6) == 0.6 - 0.01
    assert lemma_exponent(0.7, 0.7) == pytest.approx(0.4)


def test_sum_precondition():
    with pytest.raises(ValueError):
        convolution_sum_check(0.6, 0.7, 0, 0, 100)  # beta < gamma
    with pytest.raises(ValueError):
        convolution_sum_check(0.5, 0.4, 0, 0, 100)  # beta + gamma <= 1


def test_sum_convergent_constant():
    a, _ = convolution_sum_check(1.1, 1.1, 0, 0, 2**14)
    b, shape = convolution_sum_check(1.1, 1.1, 0, 0, 2**15)
    assert abs(b - a) < 1e-4
    assert 2.0 < a < 3.5
    assert shape == 1.0  # <k1 - k2> = 1 at k1 = k2


def test_sum_decay_exponent_beta_large():
    # beta = 2 > 1: alpha = gamma = 0.6; slope of log lhs vs log<k1> near -0.6
    k1s = [2**j for j in range(0, 9)]
    lhs = [convolution_sum_check(2.0, 0.6, k, 0, 2**17)[0] for k in k1s]
    logs = np.log([float(bracket(np.float64(k))) for k in k1s])
    slope = np.polyfit(logs, np.log(lhs), 1)[0]
    assert -0.7 < slope < -0.5
    products = [l * float(bracket(np.float64(k))) ** 0.6 for k, l in zip(k1s, lhs)]
    assert max(products) < 4.0


def test_sum_decay_exponent_beta_small():
    # beta = gamma = 0.7 < 1: alpha = beta + gamma - 1 = 0.4
    k1s = [2**j for j in range(6, 14)]
    lhs = [convolution_sum_check(0.7, 0.7, k, 0, 2**17)[0] for k in k1s]
    logs = np.log([float(bracket(np.float64(k))) for k in k1s])
    slope = np.polyfit(logs, np.log(lhs), 1)[0]
    assert abs(-slope - 0.4) < 0.15


# ---------------------------------------------------------------------------
# trilinear multiplier


def test_multiplier_window_enforced():
    with pytest.raises(ValueError):
        multiplier_supremum_report(XsbParams(0.1, 0.5, -0.3, 4.0, 2.0, 0.5), 8)
    with pytest.raises(ValueError):
        multiplier_supremum_report(XsbParams(0.1, 0.8, -0.1, 4.0, 2.0, 0.5), 8)


def test_multiplier_resonant_only_is_zero():
    # at cutoff 0 every triple hits the diagonal exclusion
    assert multiplier_supremum_report(XsbParams(0.1, 0.45, -0.1, 2.0, 2.0, 0.5), 0).value == 0.0


def test_multiplier_kernel_peak_location():
    # steep kernel (kappa near 1): the sup over the sigma0 sweep sits at the
    # resonance point sigma0 = -2 (n - n1)(n - n3) of the dominant triples
    params = XsbParams(0.0, 0.49, -0.005, 2.0, 2.0, 0.5)
    rep = multiplier_supremum_report(params, 1, tau_grid=[-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0])
    assert rep.kernel_window_ok
    assert rep.kernel_exponent == pytest.approx(0.91, abs=1e-12)
    assert rep.arg_n == 0
    assert rep.arg_tau == 2.0


def _multiplier_oracle(params, cutoff, tau_grid=None):
    """(value, arg_n, arg_tau) of the multiplier supremum by the direct scan:
    every (n1, n3) pair evaluated at every (n, sigma0), first maximum kept."""
    pd = params.p_dual
    a = -params.bprime
    kappa = 3.0 * (params.b - a) * pd - 2.0
    sp = params.s * pd
    ap = a * pd
    m = np.arange(-cutoff, cutoff + 1)
    wm = bracket(m) ** (-sp)
    best = (-np.inf, 0, 0.0)
    for n in range(0, cutoff + 1):
        d1 = (n - m).astype(np.float64)
        w1 = wm * bracket(d1) ** (-ap)
        w1[n + cutoff] = 0.0  # n1 = n excluded; same vector reused for n3
        n2 = m[:, None] + m[None, :] - n
        w2 = np.where(np.abs(n2) <= cutoff, bracket(n2) ** (-sp), 0.0)
        base = np.outer(w1, w1) * w2
        h = 2.0 * np.outer(d1, d1)
        pref = bracket(np.float64(n)) ** sp
        if tau_grid is None:
            sigma0 = lab._sigma0_candidates(cutoff).astype(np.float64)
        else:
            sigma0 = np.asarray(tau_grid, dtype=np.float64) - float(n) ** 2
        for s0 in sigma0:
            val = pref * float(np.sum(base * bracket(s0 + h) ** (-kappa)))
            if val > best[0]:
                best = (val, n, s0 + float(n) ** 2)
    return best


@pytest.mark.parametrize(
    "s, b, bprime, p",
    [(0.3, 0.45, -0.05, 2.0), (0.1, 0.74, -0.24, 4.0), (0.0, 0.49, -0.005, 2.0)],
    ids=["bench", "flat-kernel", "steep-kernel"],
)
def test_multiplier_regrouped_scan_matches_direct_scan(s, b, bprime, p):
    # (0.1, 0.74, -0.24, 4) has kappa = 0: every sigma0 ties and the first one must win
    params = XsbParams(s, b, bprime, p, 2.0, 0.5)
    for N in range(25):
        for tau_grid in (None, [-9.5, -4.0, -2.0, 0.0, 1.0, 2.0, 4.0, 7.25, 30.0]):
            rep = multiplier_supremum_report(params, N, tau_grid=tau_grid)
            value, arg_n, arg_tau = _multiplier_oracle(params, N, tau_grid)
            assert rep.value == pytest.approx(value, rel=1e-12, abs=0.0), (N, tau_grid)
            assert (rep.arg_n, rep.arg_tau) == (arg_n, arg_tau), (N, tau_grid)


_MULTIPLIER_PROBE = """
from wickns import XsbParams, multiplier_supremum_report
rep = multiplier_supremum_report(XsbParams(0.3, 0.45, -0.05, 2.0, 2.0, 0.5), 32)
print(rep.value.hex(), rep.arg_n, rep.arg_tau.hex())
"""


def test_multiplier_bits_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(wickns.__file__))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _MULTIPLIER_PROBE], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_multiplier_flat_kernel_flagged():
    # (s, p, b, b') = (0.1, 4, 0.74, -0.24) sits exactly on (b - a) p' = 2/3:
    # the derived kernel exponent collapses to 0 and the window flag clears
    rep = multiplier_supremum_report(XsbParams(0.1, 0.74, -0.24, 4.0, 2.0, 0.5), 8)
    assert not rep.kernel_window_ok
    assert abs(rep.kernel_exponent) < 1e-12
    assert rep.value > 0


# ---------------------------------------------------------------------------
# trilinear ratio ensembles


def test_trilinear_forcing_block_matches_split(rng):
    # N = 0, 3, 4, 7, 8 sit at the power-of-two boundaries of the padded length (>= 4N+1);
    # the block has two leading axes (draws, times), as in trilinear_ratio
    for N in (0, 3, 4, 6, 7, 8):
        fields = [[[random_field(N, rng) for _ in range(3)] for _ in range(2)] for _ in range(2)]
        U1, U2, U3 = (np.array([[row[t][j].coeffs for t in range(2)] for row in fields]) for j in range(3))
        block = trilinear_forcing_block(U1, U2, U3)
        assert block.shape == (2, 2, 2 * N + 1)
        for i in range(2):
            for t in range(2):
                nonres, res = wick_trilinear(*fields[i][t])
                assert np.max(np.abs(block[i, t] - (nonres.coeffs + res.coeffs))) < 1e-12


def test_trilinear_forcing_single_triple():
    # (e_1, e_0, e_-1): product lands on e_0, both diagonal sums vanish
    def row(n, N=2):
        c = np.zeros((1, 2 * N + 1), dtype=complex)
        c[0, n + N] = 1.0
        return c

    out = trilinear_forcing_block(row(1), row(0), row(-1))[0]
    want = np.zeros(5, dtype=complex)
    want[2] = 1.0
    assert np.max(np.abs(out - want)) < 1e-14


def test_trilinear_ratio_stats_shape():
    stats = trilinear_ratio(
        50, XsbParams(0.1, 0.74, -0.24, 4.0, 2.0, 0.5), 8, philox_stream(606, 8), alpha=0.75, steps=32
    )
    assert stats.count + stats.filtered == 50
    assert 0 < stats.p50 <= stats.p90 <= stats.p99 <= stats.max
    d = asdict(stats)
    assert d["count"] == stats.count and d["p99"] == stats.p99


# ---------------------------------------------------------------------------
# tail Monte Carlo


def test_tail_fit_small_ensemble():
    op = bessel_operator(8, 0.75)
    params = XsbParams(0.0, 0.45, -0.1, 2.0, 2.0, 0.5)
    rep = tail_estimate_mc(
        op, params, [0.8, 1.0, 1.2, 1.5, 1.8], 1000, philox_stream(92), steps=32
    )
    assert rep.survivals[1] == pytest.approx(0.5, abs=0.01)  # lambda at the median
    assert rep.slope < 0
    assert rep.r_squared >= 0.9
    assert rep.theta == pytest.approx(3 - 2 * 0.45 - 1.0)
    assert not rep.usable[-1]  # zero-survival level dropped
    assert asdict(rep)["median"] == rep.median


def test_tail_worker_count_invariant():
    op = bessel_operator(8, 0.75)
    params = XsbParams(0.0, 0.45, -0.1, 2.0, 2.0, 0.5)
    r1 = tail_estimate_mc(op, params, [0.8, 1.0, 1.2, 1.5], 1200, philox_stream(91), steps=32, workers=1)
    r3 = tail_estimate_mc(op, params, [0.8, 1.0, 1.2, 1.5], 1200, philox_stream(91), steps=32, workers=3)
    assert r1 == r3


def test_tail_chunks_match_whole_blocks(monkeypatch):
    # a chunk recurses and norms its paths 50 at a time: the norms of its
    # whole convolution block, bit for bit, and the stream left where that
    # block's draw leaves it
    op, params = bessel_operator(8, 0.75), XsbParams(0.0, 0.45, -0.1, 2.0, 2.0, 0.5)
    grid, chunk_map, seen = make_grid(params.T, 32), lab._chunk_map, []

    def checked(fn, *args):
        def one(sub, size):
            twin = np.random.Generator(copy.deepcopy(sub.bit_generator))
            got = fn(sub, size)
            want = xsb_norm_batch(convolution_paths_block(op, grid, twin, size), grid, params)
            seen.append((size, np.array_equal(got, want), np.array_equal(sub.standard_normal(2), twin.standard_normal(2))))
            return got

        return chunk_map(one, *args)

    monkeypatch.setattr(lab, "_chunk_map", checked)
    tail_estimate_mc(op, params, [0.8, 1.0, 1.2, 1.5], 1200, philox_stream(91), steps=32)
    assert seen == [(500, True, True), (500, True, True), (200, True, True)]


def test_tail_chunk_peak_is_its_real_parts_one_block_and_one_norm_pass(monkeypatch):
    # a 500-path chunk at N = 16 and 32 steps holds its real parts (4.2 MB),
    # one 50-path block (0.9 MB), the draw buffer and one norm pass, where
    # it held the whole complex block (8.7 MB) and a 64-path norm pass
    op, params = bessel_operator(16, 0.75), XsbParams(0.0, 0.45, -0.1, 2.0, 2.0, 0.5)
    grid, chunks = make_grid(params.T, 32), []

    def first_chunk(fn, *args):
        chunks.append(fn)
        raise StopIteration

    monkeypatch.setattr(lab, "_chunk_map", first_chunk)
    with pytest.raises(StopIteration):
        tail_estimate_mc(op, params, [1.0, 1.2, 1.5], 1000, philox_stream(5), steps=32)
    chunks[0](philox_stream(6), 2)  # the propagator phases and the norm's operator are built once
    block = convolution_paths_block(op, grid, philox_stream(7), lab._TAIL_ROWS)
    _, norm_pass = traced_peak(lambda: xsb_norm_batch(block, grid, params))
    _, peak = traced_peak(lambda: chunks[0](philox_stream(8), 500))
    assert peak < 8 * 500 * 32 * 33 + block.nbytes + 8 * noise._DRAW_BUF + norm_pass + (1 << 18)


def test_tail_sparse_ladder_is_error():
    # widely spaced levels leave fewer than 3 with nontrivial survival
    op = bessel_operator(8, 0.5)
    params = XsbParams(0.0, 0.7, -0.1, 4.0, 4.0, 1.0)
    with pytest.raises(ValueError, match="fewer than 3 usable"):
        tail_estimate_mc(op, params, [1.0, 1.5, 2.0, 2.5], 1000, philox_stream(77), steps=32)


def test_tail_parameter_guards():
    op = bessel_operator(4, 0.75)
    good = XsbParams(0.0, 0.45, -0.1, 2.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        tail_estimate_mc(op, XsbParams(0.0, 0.6, -0.1, 2.0, 2.0, 0.5), [1.0, 1.2, 1.5], 1000, philox_stream(0))
    with pytest.raises(ValueError):
        tail_estimate_mc(op, good, [1.0, 1.2, 1.5], 500, philox_stream(0))
    with pytest.raises(ValueError):
        tail_estimate_mc(op, good, [-1.0, 1.2, 1.5], 1000, philox_stream(0))


def test_tail_ladder_checked_before_simulating(monkeypatch):
    def no_ensemble(*args, **kwargs):
        raise AssertionError("ensemble simulated before the lambda ladder was checked")

    monkeypatch.setattr(lab, "_chunk_map", no_ensemble)
    op = bessel_operator(4, 0.75)
    good = XsbParams(0.0, 0.45, -0.1, 2.0, 2.0, 0.5)
    with pytest.raises(ValueError, match="must be positive"):
        tail_estimate_mc(op, good, [-1.0, 1.2, 1.5], 1000, philox_stream(0))
    with pytest.raises(ValueError, match="at least 3 lambda levels"):
        tail_estimate_mc(op, good, [1.0, 1.2], 1000, philox_stream(0))
    with pytest.raises(ValueError, match="at least 3 distinct levels"):
        tail_estimate_mc(op, good, [1.0, 1.0, 1.2], 1000, philox_stream(0))
    # a repeated level among 3 distinct ones still fits
    with pytest.raises(AssertionError, match="ensemble simulated"):
        tail_estimate_mc(op, good, [1.0, 1.0, 1.2, 1.5], 1000, philox_stream(0))


def _no_ensemble_work(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("ensemble work began before the range check")

    monkeypatch.setattr(lab, "_chunk_map", boom)


def test_range_checks_name_their_values_before_any_ensemble_work(monkeypatch):
    # each message is the text the CLI prints after its key; the CLI used to
    # restate these three checks with its own copies of the conditions
    _no_ensemble_work(monkeypatch)
    cases = (
        (
            lambda: tail_estimate_mc(
                bessel_operator(4, 0.75), XsbParams(0.0, 0.6, -0.1, 2.0, 2.0, 0.5), [1.0, 1.2, 1.5], 1000, philox_stream(0)
            ),
            "need b < 1 - 1/q = 0.5 for a finite tail scale, got 0.6",
        ),
        (
            lambda: multiplier_supremum_report(XsbParams(0.0, 0.95, -0.3, 2.0, 2.0, 0.5), 8),
            "need -1/p < bprime < 0 < b < 1 - 1/p, got b = 0.95, bprime = -0.3, p = 2.0",
        ),
        (
            lambda: variance_invariance_test(SolverConfig(4, 0.05, 0.25), 100, philox_stream(0)),
            "horizon/dt must be a multiple of 4 so T/4, T/2, T are grid times, got 5",
        ),
    )
    for call, msg in cases:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == msg


# ---------------------------------------------------------------------------
# variance evolution


def test_variance_report_small_ensemble():
    rep = variance_invariance_test(SolverConfig(4, 1 / 64, 0.25), 400, philox_stream(62), substeps=2)
    assert rep.times == (0.0625, 0.125, 0.25)
    assert rep.target(0.0) == 1.0
    assert rep.target(0.25) == 1.25
    assert rep.max_rel_dev < 0.2  # loose band at 400 paths
    assert 0.8 < rep.slope < 1.2
    assert rep.blowup_fraction == 0.0
    assert not rep.flagged
    d = asdict(rep)
    assert len(d["variances"]) == 3 and len(d["variances"][0]) == 9


def _whole_draw_report(N, T, dt, B, seed, substeps):
    """variance_invariance_test's report for a one-chunk ensemble, from the
    chunk's g, then its whole Z in one draw, then every row through the
    stepper one segment between recorded times per call; paths with a non-finite snapshot, or a snapshot mass above 100
    times the law's (2N+1)(1 + t), are left out and counted."""
    steps = int(T / dt)
    rec = [steps // 4, steps // 2, steps]
    sub = philox_stream(int(philox_stream(seed).integers(0, 2**62, size=1)[0]))
    g = _complex_normal(sub, (B, 2 * N + 1)) / np.sqrt(2.0)
    Z = _draw_increments(sub, (B, steps, 2 * N + 1), dt)
    with np.errstate(over="ignore", invalid="ignore"):
        snaps, U = [], g
        for a, b in zip((0, *rec), rec):
            U = evolve_wick_rk4ip(U, np.ones(2 * N + 1), Z[:, a:b], dt, substeps)
            snaps.append(U)
        snaps = np.stack(snaps)
        ts = np.array(rec) * dt
        masses = np.sum(np.abs(snaps) ** 2, axis=2)
        kept = np.all(np.isfinite(snaps), axis=(0, 2)) & np.all(masses <= 100 * (2 * N + 1) * (1.0 + ts)[:, None], axis=0)
    variances = np.sum(np.abs(snaps[:, kept]) ** 2, axis=1) / np.sum(kept)
    rel = np.abs(variances - (1.0 + ts)[:, None]) / (1.0 + ts)[:, None]
    tfit, vfit = np.concatenate(([0.0], ts)), np.vstack([np.ones(2 * N + 1), variances])
    per_mode = np.polyfit(tfit, vfit, 1)[0]
    frac = 1.0 - np.sum(kept) / B
    return {
        "times": tuple(ts.tolist()),
        "variances": tuple(tuple(row) for row in variances.tolist()),
        "max_rel_dev": float(np.max(rel)),
        "slope": float(np.polyfit(tfit, vfit.mean(axis=1), 1)[0]),
        "per_mode_slope_range": (float(np.min(per_mode)), float(np.max(per_mode))),
        "blowup_fraction": float(frac),
        "flagged": bool(frac > 0.01),
        "samples": B,
        "substeps": substeps,
    }


def test_variance_row_blocks_match_whole_draw_oracle():
    # 1007 rows at N = 4 are one block of the 911-row floor; the partial
    # blow-up test below spans two
    rep = variance_invariance_test(SolverConfig(4, 1 / 256, 0.25), 1007, philox_stream(63), substeps=1)
    assert rep.blowup_fraction == 0.0
    assert asdict(rep) == _whole_draw_report(4, 0.25, 1 / 256, 1007, 63, 1)


def test_variance_partial_blowup_matches_whole_draw_oracle():
    # 11 of 600 paths go non-finite, in both 300-row blocks, and
    # one more stays finite but reaches |u_hat| ~ 1.9e27; the sums over the
    # other paths keep the bits of the whole draw
    rep = variance_invariance_test(SolverConfig(16, 1 / 128, 0.25), 600, philox_stream(99), substeps=1)
    assert rep.blowup_fraction == 1.0 - 588 / 600
    assert asdict(rep) == _whole_draw_report(16, 0.25, 1 / 128, 600, 99, 1)


def test_variance_test_holds_one_row_block_of_increments():
    # the whole increment block would be 2000 * 64 * 9 complex = 18.4 MB
    _, peak = traced_peak(lambda: variance_invariance_test(SolverConfig(4, 1 / 256, 0.25), 2000, philox_stream(5), substeps=1))
    assert peak < 2000 * 64 * 9 * 16


def test_variance_block_rows_from_a_coefficient_floor():
    # the fewest paths that put 8192 coefficients through a stepper call;
    # the count depends on 2N+1 alone
    cases = {9: 911, 17: 482, 33: 249, 257: 32, 8193: 1}
    assert {dim: lab._variance_block_rows(dim) for dim in cases} == cases


@pytest.mark.parametrize("samples, blocks", [(2500, [250] * 10), (2499, [250] * 9 + [249]), (500, [250, 250]), (497, [497])])
def test_variance_chunk_splits_into_near_equal_row_blocks(monkeypatch, samples, blocks):
    # max(1, B // 249) blocks at N = 16, so no stepper call is left with a
    # sliver of the chunk (2500 paths were 10 blocks of 249 and one of 10);
    # each block goes through in three segments (to T/4, T/2, T) and is
    # counted on its first
    sizes = []
    step = lab.evolve_wick_rk4ip
    monkeypatch.setattr(lab, "evolve_wick_rk4ip", lambda U0, *a: sizes.append(len(U0)) or step(U0, *a))
    variance_invariance_test(SolverConfig(16, 1 / 256, 1 / 64), samples, philox_stream(5), substeps=1)
    assert sizes[::3] == blocks
    assert sizes == [b for b in blocks for _ in range(3)]


def test_variance_long_horizon_holds_one_rule_sized_block():
    # 64 steps at N = 16: 250-row blocks hold 8.4 MB of increments, where
    # 500-row blocks held 16.9 MB; the stepper's working set and the chunk's
    # buffers add under 6 MB, whatever the horizon
    steps, dim = 64, 33
    rows = lab._variance_block_rows(dim)
    _, peak = traced_peak(lambda: variance_invariance_test(SolverConfig(16, 1 / 256, 0.25), 500, philox_stream(5), substeps=1))
    assert peak < rows * steps * dim * 16 + (6 << 20)


def test_variance_grid_guards():
    with pytest.raises(ValueError):
        variance_invariance_test(SolverConfig(4, 0.3, 0.25), 1000, philox_stream(0))


# ---------------------------------------------------------------------------
# criticality arithmetic


def test_criticality_d1_both_scales_critical():
    rep = criticality_report(1, 2.0)
    assert rep.s_crit_p == -0.5
    assert rep.s_hat_crit_p == -0.5
    assert rep.white_noise_reg_sobolev == -0.5
    assert rep.white_noise_reg_fl == -0.5
    assert rep.classifications["snls_sobolev"] == "critical"
    assert rep.classifications["snls_fourier_lebesgue"] == "critical"
    assert rep.classifications["sqe"] == "subcritical"


def test_criticality_d1_fl_critical_any_p():
    for p in (1.5, 2.0, 4.0, 8.0):
        rep = criticality_report(1, p)
        assert rep.classifications["snls_fourier_lebesgue"] == "critical"


def test_criticality_heat_ladder():
    assert criticality_report(2).classifications["sqe"] == "subcritical"
    assert criticality_report(3).classifications["sqe"] == "subcritical"
    rep4 = criticality_report(4, np.inf)
    assert rep4.classifications["sqe"] == "critical"
    assert rep4.s_crit_p == -1.0
    assert rep4.heat_convolution_reg == -1.0
    assert criticality_report(5).classifications["sqe"] == "supercritical"


def test_criticality_snls_supercritical_d2():
    rep = criticality_report(2, 2.0)
    assert rep.classifications["snls_sobolev"] == "supercritical"
    assert rep.classifications["snls_fourier_lebesgue"] == "supercritical"


def test_criticality_pure_function():
    a = criticality_report(3, 4.0)
    b = criticality_report(3, 4.0)
    assert a == b
    with pytest.raises(ValueError):
        criticality_report(0)
    with pytest.raises(ValueError):
        criticality_report(2, 1.0)
