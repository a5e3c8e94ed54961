import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wickns
from wickns import (
    NoiseOperator,
    Trajectory,
    TimeWindow,
    XsbParams,
    bessel_operator,
    bracket,
    convolution_paths_block,
    discrete_duhamel,
    fl_norm,
    frequencies,
    gamma_norm,
    homogeneous_estimate_check,
    identity_operator,
    make_field,
    make_grid,
    mode_field,
    operator_from_csv,
    operator_norm,
    philox_stream,
    propagator_phases,
    raised_cosine_ramp,
    temporal_window_factor,
    xsb_norm,
    xsb_norm_batch,
)
from wickns.fields import _five_smooth
from wickns.lab import _pool_map
from wickns.noise import _check_uniform, _complex_normal
from wickns.norms import (
    _CHUNK,
    _extend_and_window,
    _inverse_phases,
    _modulation_l2,
    _modulation_lq,
    _xsb_circulant,
)
from conftest import random_field

PICARD_NOISE = pathlib.Path(__file__).resolve().parents[1] / "wickbench" / "workloads" / "picard_noise.csv"


# ---------------------------------------------------------------------------
# params and window


def test_params_validation():
    with pytest.raises(ValueError):
        XsbParams(0.0, 0.3, -0.3, 2.0, 2.0, 1.5)  # T > 1
    with pytest.raises(ValueError):
        XsbParams(0.0, 0.3, -0.3, 2.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        XsbParams(0.0, 0.3, -0.3, 1.0, 2.0, 0.5)  # p endpoint
    with pytest.raises(ValueError):
        XsbParams(0.0, 0.3, -0.3, 2.0, np.inf, 0.5)


def test_params_windows():
    good = XsbParams(0.1, 0.74, -0.24, 4.0, 2.0, 0.5)
    assert good.p_dual == pytest.approx(4.0 / 3.0)
    assert good.trilinear_window_ok()
    assert not good.with_exponent(0.76).trilinear_window_ok()
    assert good.with_exponent(0.2).b == 0.2


def test_ramp_shape():
    assert raised_cosine_ramp(0.0) == 0.0
    assert raised_cosine_ramp(1.0) == pytest.approx(1.0, abs=1e-15)
    assert raised_cosine_ramp(0.5) == pytest.approx(0.5, abs=1e-15)
    # endpoint derivatives vanish: ramp is flat to second order
    h = 1e-4
    assert raised_cosine_ramp(h) < h * 1e-2
    assert 1.0 - raised_cosine_ramp(1.0 - h) < h * 1e-2


def test_window_profile():
    w = TimeWindow(scale=0.5)
    assert np.array_equal(w([0.0, 0.25, 0.5]), [1.0, 1.0, 1.0])
    assert np.array_equal(w([-1.0, 1.0, 2.0]), [0.0, 0.0, 0.0])
    assert w(-0.5) == 0.5 and w(0.75) == 0.5
    u = np.linspace(-1.2, 1.7, 101)
    vals = w(u)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    with pytest.raises(ValueError):
        TimeWindow(scale=0.0)


# ---------------------------------------------------------------------------
# spatial norms


def test_fl_norm_mode_zero():
    for s, p in [(0.0, 2.0), (3.0, 1.5), (-2.0, 4.0)]:
        assert fl_norm(mode_field(2, 0, 1.0), s, p) == 1.0


def test_fl_norm_single_mode_weight():
    assert fl_norm(mode_field(2, 1, 1.0), 1.0, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_fl_norm_bracket_weighted_sum():
    ns = np.arange(-2, 3)
    f = make_field(2, 1.0 / bracket(ns))
    want = np.sqrt(1.0 + 2 * 0.5 + 2 * 0.2)
    assert fl_norm(f, 0.0, 2.0) == pytest.approx(want, rel=1e-15)


def test_fl_norm_sup_case(rng):
    f = random_field(5, rng)
    w = bracket(f.ns) ** 0.7 * np.abs(f.coeffs)
    assert fl_norm(f, 0.7, np.inf) == pytest.approx(np.max(w), rel=1e-15)


def test_fl_norm_unimodular_invariance(rng):
    f = random_field(6, rng)
    g = make_field(6, f.coeffs * np.exp(1.37j))
    for s, p in [(0.0, 2.0), (0.5, 3.0), (-1.0, np.inf)]:
        assert fl_norm(g, s, p) == pytest.approx(fl_norm(f, s, p), rel=1e-14)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_fl_norm_lp_monotone(seed):
    f = random_field(6, philox_stream(seed))
    n15, n2, n4 = (fl_norm(f, 0.0, p) for p in (1.5, 2.0, 4.0))
    assert n15 >= n2 * (1 - 1e-12) and n2 >= n4 * (1 - 1e-12)


# ---------------------------------------------------------------------------
# operator norms


def test_gamma_identity_closed_form():
    for N in (1, 4, 50):
        assert gamma_norm(identity_operator(N), 0.0, 2.0) == pytest.approx(
            np.sqrt(2 * N + 1), rel=1e-15
        )


def test_hs_identity_small():
    # the Hilbert-Schmidt norm, as the norms command records it, of Id on three modes
    assert gamma_norm(identity_operator(1), 0.0, 2.0) == pytest.approx(np.sqrt(3.0), rel=1e-15)


def test_gamma_bessel_tail_sum():
    # alpha=1, s=0, p=2: truncated norm matches direct summation and sits near
    # the full-line value sqrt(pi * coth(pi))
    N = 10_000
    got = gamma_norm(bessel_operator(N, 1.0), 0.0, 2.0)
    ns = np.arange(-N, N + 1, dtype=np.float64)
    oracle = np.sqrt(np.sum(1.0 / (1.0 + ns**2)))
    assert got == pytest.approx(oracle, rel=1e-13)
    full = np.sqrt(np.pi / np.tanh(np.pi))
    assert abs(got - full) < 1e-3


def test_gamma_threshold_dichotomy():
    # s < alpha - 1/p: truncated norms plateau; s > alpha - 1/p: they keep growing
    for s, alpha, p, convergent in [
        (0.25, 1.0, 2.0, True),
        (0.75, 1.0, 2.0, False),
        (0.4, 0.75, 4.0, True),
        (0.6, 0.75, 4.0, False),
    ]:
        small = gamma_norm(bessel_operator(2**12, alpha), s, p)
        big = gamma_norm(bessel_operator(2**13, alpha), s, p)
        ratio = big / small
        if convergent:
            assert ratio < 1.01
        else:
            assert ratio > 1.05


def test_hs_matrix_frobenius_oracle(rng):
    mat = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    op = NoiseOperator(3, matrix=mat)
    s = 0.6
    w = bracket(np.arange(-3, 4)) ** s
    oracle = np.sqrt(np.sum((w[:, None] * np.abs(mat)) ** 2))
    assert gamma_norm(op, s, 2.0) == pytest.approx(oracle, rel=1e-14)


def test_operator_norm_multiplier_exact():
    assert operator_norm(bessel_operator(8, -1.0)) == np.sqrt(65.0)


def test_operator_norm_random_matrices(rng):
    for _ in range(5):
        mat = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
        got = operator_norm(NoiseOperator(5, matrix=mat))
        want = np.linalg.norm(mat, 2)
        assert abs(got - want) <= 1e-12 * want


def test_operator_norm_oracle_near_degenerate_and_picard_noise(rng):
    # top singular values 1 and 0.999: an iterative estimate stalls between them
    for _ in range(3):
        q1, _ = np.linalg.qr(rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17)))
        q2, _ = np.linalg.qr(rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17)))
        sv = np.concatenate([[1.0, 0.999], rng.uniform(0.1, 0.5, 15)])
        mat = (q1 * sv) @ q2.conj().T
        assert abs(operator_norm(NoiseOperator(8, matrix=mat)) - np.linalg.norm(mat, 2)) <= 1e-12
    # the picard_path workload's diagonal noise, whose exact norm is its largest entry
    op = NoiseOperator(64, matrix=np.diag(operator_from_csv(PICARD_NOISE.read_text()).multiplier))
    for want in (np.linalg.norm(op.matrix, 2), 1e-3):
        assert abs(operator_norm(op) - want) <= 1e-12 * want


def test_real_diagonal_norms_equal_as_multiplier_and_matrix():
    # a real diagonal matrix file loads as the multiplier of its diagonal, and
    # every norm a run reports keeps its bits: the picard_path workload's
    # noise, then random diagonals over twelve decades with some zeros
    diag = operator_from_csv(PICARD_NOISE.read_text()).multiplier
    rng = philox_stream(11)
    cases = [diag]
    for _ in range(2000):
        d = rng.standard_normal(2 * int(rng.integers(0, 9)) + 1) * 10.0 ** rng.uniform(-6, 6)
        d[rng.random(d.size) < 0.2] = 0.0
        cases.append(d)
    for d in cases:
        N = (d.size - 1) // 2
        mult, mat = NoiseOperator(N, multiplier=d), NoiseOperator(N, matrix=np.diag(d))
        assert np.array_equal(mult.row_l2(), mat.row_l2())
        assert operator_norm(mult) == operator_norm(mat)
        for s, p in ((0.0, 2.0), (0.3, 2.0), (-0.5, 3.0), (1.0, np.inf)):
            assert gamma_norm(mult, s, p) == gamma_norm(mat, s, p)


def test_operator_norm_is_relative_below_one(rng):
    # relative at every scale: the diagonal noise of the picard_path
    # workload (bessel 0.75 scaled by 1e-3, largest entry 1e-3)
    diag = 1e-3 * bessel_operator(64, 0.75).multiplier
    assert abs(operator_norm(NoiseOperator(64, matrix=np.diag(diag))) - 1e-3) <= 1e-12 * 1e-3
    mat = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    want = np.linalg.norm(mat, 2)
    for scale in (1.0, 1e-3):
        assert abs(operator_norm(NoiseOperator(16, matrix=scale * mat)) - scale * want) <= 1e-11 * scale * want


def test_gamma_ideal_property(rng):
    # ||S T U||_HS <= ||S||_op ||T||_HS ||U||_op for random desk-scale matrices
    dim = 33
    for _ in range(3):
        S = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        T = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        U = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = gamma_norm(NoiseOperator(16, matrix=S @ T @ U), 0.0, 2.0)
        rhs = (
            operator_norm(NoiseOperator(16, matrix=S))
            * gamma_norm(NoiseOperator(16, matrix=T), 0.0, 2.0)
            * operator_norm(NoiseOperator(16, matrix=U))
        )
        assert lhs <= rhs + 1e-10


# ---------------------------------------------------------------------------
# restriction-norm surrogate


def _free_flow(f, T, steps):
    times = np.linspace(0.0, T, steps + 1)
    states = f.coeffs[None, :] * np.exp(1j * np.outer(times, f.ns.astype(float) ** 2))
    return Trajectory(times, states)


def test_xsb_zero_trajectory():
    times = np.linspace(0.0, 0.5, 33)
    traj = Trajectory(times, np.zeros((33, 9), dtype=complex))
    params = XsbParams(0.0, 0.3, -0.3, 2.0, 2.0, 0.5)
    assert xsb_norm(traj, params) == 0.0


def test_xsb_grid_guards():
    params = XsbParams(0.0, 0.3, -0.3, 2.0, 2.0, 0.5)
    short = Trajectory(np.linspace(0, 0.5, 9), np.zeros((9, 3), dtype=complex))
    with pytest.raises(ValueError):
        xsb_norm(short, params)
    wrong_span = Trajectory(np.linspace(0, 0.4, 33), np.zeros((33, 3), dtype=complex))
    with pytest.raises(ValueError):
        xsb_norm(wrong_span, params)


def test_xsb_free_flow_factorizes(rng):
    params = XsbParams(0.4, 0.35, -0.2, 3.0, 2.5, 0.5)
    factor = temporal_window_factor(params)
    for _ in range(10):
        f = random_field(6, rng)
        got = xsb_norm(_free_flow(f, 0.5, 64), params)
        want = factor * fl_norm(f, params.s, params.p)
        assert abs(got - want) <= 1e-10 * want


def test_homogeneous_ratio_independent_of_datum(rng):
    params = XsbParams(0.2, 0.45, -0.1, 2.0, 3.0, 0.25)
    r0 = homogeneous_estimate_check(mode_field(5, 0, 1.0), params)
    for _ in range(5):
        r = homogeneous_estimate_check(random_field(5, rng), params)
        assert abs(r - r0) <= 1e-9 * r0


def test_homogeneous_ratio_scale_exact():
    f = mode_field(3, 2, 0.7 + 0.1j)
    params = XsbParams(0.3, 0.4, -0.2, 2.0, 2.0, 0.5)
    assert homogeneous_estimate_check(f, params) == homogeneous_estimate_check(make_field(3, f.coeffs * 2.0), params)


def test_homogeneous_zero_datum_error():
    params = XsbParams(0.0, 0.3, -0.3, 2.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        homogeneous_estimate_check(mode_field(2, 0, 0.0), params)


def test_homogeneous_parseval_oracle():
    # b=0, q=2: the temporal factor is the discrete L^2_t norm of the window
    # on the extended grid, by Parseval for the padded transform
    T, steps = 0.5, 64
    params = XsbParams(0.0, 0.0, -0.3, 2.0, 2.0, T)
    ratio = homogeneous_estimate_check(mode_field(4, 1, 0.3 - 0.4j), params, steps=steps)
    dt = T / steps
    tj = -2 * T + dt * np.arange(4 * steps + 1)
    oracle = np.sqrt(dt * np.sum(TimeWindow(T)(tj) ** 2))
    assert ratio == pytest.approx(oracle, rel=1e-12)


def test_xsb_batch_matches_scalar(rng):
    op = bessel_operator(6, 0.75)
    grid = make_grid(0.5, 32)
    B = 2 * _CHUNK + 3  # two full chunks and a partial one
    states = convolution_paths_block(op, grid, rng, B)
    params = XsbParams(0.1, 0.3, -0.3, 2.0, 2.0, 0.5)
    batch = xsb_norm_batch(states, grid, params)
    for i in range(B):
        single = xsb_norm(Trajectory(grid, states[i]), params)
        assert batch[i] == pytest.approx(single, rel=1e-12)


def _padded_fft_norms(states, times, params, pad):
    """The surrogate through the padded time FFT at any q: the q != 2 path,
    and the oracle of the q = 2 circulant form."""
    v, dt = _extend_and_window(states, times, params)
    tf = _modulation_lq(v, dt, params.b, params.q, pad)
    wn = bracket(frequencies((states.shape[-1] - 1) // 2)) ** params.s
    return np.sum((wn * tf) ** params.p, axis=-1) ** (1.0 / params.p)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 0.49, exclude_min=True),
    st.floats(0.0, 0.49, exclude_min=True),
    st.floats(1.2, 4.0),
    st.floats(1.0 / 16.0, 1.0),
    st.integers(15, 200),
    st.integers(0, 20),
    st.sampled_from([2, 3, 8]),  # L = pad (4M + 1) is odd at pad 3
    st.integers(0, 2**32),
)
def test_xsb_gram_form_matches_padded_fft(s, b, p, T, M, N, pad, seed):
    params = XsbParams(s, b, -0.1, p, 2.0, T)
    times = np.linspace(0.0, T, M + 1)
    rng = philox_stream(seed)
    noise = _complex_normal(rng, (M + 1, 2 * N + 1))
    # free flow: S(-t)u is constant in t, the smooth end where the form cancels most
    free = _complex_normal(rng, 2 * N + 1) * propagator_phases(N, times)
    states = np.stack([noise, free])
    got = xsb_norm_batch(states, times, params, pad=pad)
    want = _padded_fft_norms(states, times, params, pad)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("M", [15, 1024])
@pytest.mark.parametrize("pad", [3, 8])
def test_xsb_circulant_form_matches_padded_fft_at_workload_scale(M, pad):
    # the hypothesis oracle stops at M = 200; picard runs at M = 1024
    N = 8
    params = XsbParams(0.1, 0.45, -0.1, 2.0, 2.0, 0.25)
    times = np.linspace(0.0, params.T, M + 1)
    rng = philox_stream(M + pad)
    noise = _complex_normal(rng, (M + 1, 2 * N + 1))
    free = _complex_normal(rng, 2 * N + 1) * propagator_phases(N, times)
    states = np.stack([noise, free])
    got = xsb_norm_batch(states, times, params, pad=pad)
    want = _padded_fft_norms(states, times, params, pad)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_xsb_gram_cached_per_key():
    key = (32, 0.5 / 32, 0.5, 0.3, 8)  # (M, dt, T, b, pad)
    form = _xsb_circulant(*key)
    inner, lam, rows, corner = form
    assert inner.shape == (33,) and rows.shape == (2, 33) and corner.shape == (2, 2)
    assert inner[0] == inner[-1] == 0.0
    assert not any(arr.flags.writeable for arr in form)
    assert _xsb_circulant(*key) is form
    for other in ((64, 0.5 / 64, 0.5, 0.3, 8), (32, 1.0 / 32, 1.0, 0.3, 8), (32, 0.5 / 32, 0.5, 0.2, 8), (32, 0.5 / 32, 0.5, 0.3, 3)):
        H = _xsb_circulant(*other)
        assert H is not form
        assert any(h.shape != g.shape or not np.array_equal(h, g) for h, g in zip(H, form))
    for M in (15, 32, 64, 1024):
        P = len(_xsb_circulant(M, 0.5 / M, 0.5, 0.3, 8)[1])
        assert P >= 2 * M + 1 and P == _five_smooth(2 * M + 1)  # brute-forced through 2100 in test_fields


def _uncached_xsb_norm(states, times, params, pad=8):
    """xsb_norm at q = 2 with the inverse phases built afresh on each call."""
    N = (states.shape[-1] - 1) // 2
    w = states * np.conj(propagator_phases(N, times))
    tf = _modulation_l2(w[None], _check_uniform(times), params.T, params.b, pad)[0]
    return float(np.sum((bracket(frequencies(N)) ** params.s * tf) ** params.p) ** (1.0 / params.p))


def test_inverse_phases_cached_per_grid_bytes():
    N, T, M = 16, 0.9, 40
    spaced = np.linspace(0.0, T, M + 1)
    stepped = np.arange(M + 1) * (T / M)
    # the same (N, M, dt), yet the last time differs in its last bit
    assert _check_uniform(spaced) == _check_uniform(stepped)
    assert spaced.tobytes() != stepped.tobytes()
    _inverse_phases.cache_clear()
    phases = _inverse_phases(N, spaced.tobytes())
    assert not phases.flags.writeable
    assert np.array_equal(phases, np.conj(propagator_phases(N, spaced)))
    assert _inverse_phases(N, spaced.tobytes()) is phases
    params = XsbParams(0.1, 0.45, -0.1, 2.0, 2.0, T)
    states = _complex_normal(philox_stream(17), (M + 1, 2 * N + 1))
    for times in (spaced, stepped, spaced):
        assert xsb_norm(Trajectory(times, states), params) == _uncached_xsb_norm(states, times, params)


def test_inverse_phases_cache_filled_from_pool_threads():
    # more threads than cores and a short switch interval, so the threads
    # race to fill the cache; each must still read the serial bits
    grid = make_grid(0.5, 64)
    states = convolution_paths_block(bessel_operator(8, 0.75), grid, philox_stream(3), 8)
    params = XsbParams(0.0, 0.3, -0.3, 2.0, 2.0, 0.5)
    serial = xsb_norm_batch(states, grid, params)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 4, 4, 4):
            _inverse_phases.cache_clear()
            size = len(states) // workers
            parts = _pool_map(lambda i: xsb_norm_batch(states[i * size : (i + 1) * size], grid, params), workers, workers)
            assert np.array_equal(np.concatenate(parts), serial)
    finally:
        sys.setswitchinterval(interval)


_BLAS_PROBE = """
import numpy as np
from wickns import XsbParams, philox_stream, propagator_phases, xsb_norm_batch
from wickns.noise import _complex_normal
times = np.linspace(0.0, 0.5, 1025)
states = _complex_normal(philox_stream(7), (8, 1, 129)) * propagator_phases(64, times)
print([x.hex() for x in xsb_norm_batch(states, times, XsbParams(0.1, 0.45, -0.1, 2.0, 2.0, 0.5))])
"""


def test_xsb_gram_form_bits_do_not_depend_on_blas_threads():
    # G x is (1025 x 1025) by (1025 x 2064), large enough for a threaded BLAS to
    # split, and free flows cancel enough in the form to show its last bits
    src = os.path.dirname(os.path.dirname(wickns.__file__))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_xsb_psi_median_scaling():
    # median over 100 convolution samples tracks T^(3/2 - b - 1/q) * gamma_norm
    # within a factor of 4 across T in {1/4, 1/2, 1}
    op = bessel_operator(16, 0.75)
    gam = gamma_norm(op, 0.0, 2.0)
    for T in (0.25, 0.5, 1.0):
        grid = make_grid(T, 32)
        states = convolution_paths_block(op, grid, philox_stream(555), 100)
        params = XsbParams(0.0, 0.3, -0.3, 2.0, 2.0, T)
        med = float(np.median(xsb_norm_batch(states, grid, params)))
        scale = T ** (1.5 - 0.3 - 0.5) * gam
        assert scale / 4 <= med <= scale * 4


# ---------------------------------------------------------------------------
# duhamel quadrature and the inhomogeneous estimate


def test_discrete_duhamel_zero():
    grid = make_grid(0.5, 16)
    F = Trajectory(grid, np.zeros((17, 3), dtype=complex))
    out = discrete_duhamel(F)
    assert np.all(out.states == 0)
    params = XsbParams(0.0, 0.3, -0.2, 2.0, 2.0, 0.5)
    assert xsb_norm(out, params) == xsb_norm(F, params.with_exponent(params.bprime)) == 0.0


def test_discrete_duhamel_constant_zero_mode():
    # forcing e_0 constant in t integrates to t * e_0 exactly on the grid
    grid = make_grid(0.5, 32)
    F = Trajectory(grid, np.ones((33, 1), dtype=complex))
    out = discrete_duhamel(F)
    assert np.max(np.abs(out.states[:, 0] - grid)) < 1e-14


def test_duhamel_closed_form_oracle():
    T, steps = 0.5, 32
    grid = make_grid(T, steps)
    F = Trajectory(grid, np.ones((steps + 1, 1), dtype=complex))
    params = XsbParams(0.0, 0.0, 0.0, 2.0, 2.0, T)
    lhs = xsb_norm(discrete_duhamel(F), params)
    rhs = xsb_norm(F, params.with_exponent(params.bprime))
    dt = T / steps
    tj = -2 * T + dt * np.arange(4 * steps + 1)
    w = TimeWindow(T)(tj)
    assert lhs == pytest.approx(np.sqrt(dt * np.sum((w * np.clip(tj, 0, T)) ** 2)), rel=1e-12)
    assert rhs == pytest.approx(np.sqrt(dt * np.sum(w**2)), rel=1e-12)


def test_duhamel_tfit_regression():
    # fitted T-exponent of median(lhs/rhs) within 0.2 of 1 + b' - b
    for b, bp, q in [(0.5, -0.25, 2.0), (0.3, -0.3, 2.0), (0.4, 0.0, 2.0)]:
        Ts = [0.125, 0.25, 0.5, 1.0]
        med = []
        for T in Ts:
            rng = philox_stream(123)
            grid = make_grid(T, 32)
            ratios = []
            for _ in range(40):
                states = (
                    rng.standard_normal((33, 17)) + 1j * rng.standard_normal((33, 17))
                ) / np.sqrt(2)
                F = Trajectory(grid, states)
                params = XsbParams(0.0, b, bp, 2.0, q, T)
                lhs = xsb_norm(discrete_duhamel(F), params)
                rhs = xsb_norm(F, params.with_exponent(params.bprime))
                ratios.append(lhs / rhs)
            med.append(np.median(ratios))
        slope = np.polyfit(np.log(Ts), np.log(med), 1)[0]
        assert abs(slope - (1 + bp - b)) < 0.2
