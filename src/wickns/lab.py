"""Numerical verification, at truncated scale, of the quantitative lemmas:
divisor bounds, two-factor convolution sums, the trilinear-estimate
multiplier, Gaussian tail fits for the stochastic convolution, the
variance-(1+t) evolution of the white-noise-data truncated flow, and the
scaling/criticality arithmetic.

All "up to a constant" statements are tested as stability under truncation
doubling plus regression-exponent checks, never as absolute constants.
Monte-Carlo ops draw chunk seeds once from the caller's generator and give
every chunk its own counter-based stream, so results do not depend on worker
count or completion order.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import SolverConfig, evolve_wick_rk4ip
from .fields import alias_free_length, frequencies, from_grid, propagator_phases, to_grid
from .noise import (
    NoiseOperator,
    _check_uniform,
    _free_recursion,
    _increment_blocks,
    _increment_blocks_kept_real,
    _unit_complex_normal,
    bessel_operator,
    convolution_paths_block,
    identity_operator,
    make_grid,
    philox_stream,
)
from .norms import XsbParams, bracket, gamma_norm, xsb_norm_batch

__all__ = [
    "CriticalityReport",
    "TailFitReport",
    "TrilinearStats",
    "VarianceReport",
    "MultiplierReport",
    "divisor_count",
    "divisor_bound_scan",
    "lemma_exponent",
    "convolution_sum_check",
    "multiplier_supremum_report",
    "trilinear_forcing_block",
    "trilinear_ratio",
    "tail_estimate_mc",
    "variance_invariance_test",
    "criticality_report",
]

LEMMA_EPS = 0.01  # fixed epsilon of the beta = 1 borderline case
# paths per ensemble chunk; each chunk has its own stream, so a size fixes the results at a seed
TAIL_CHUNK = 500
VARIANCE_CHUNK = 2500
# paths a tail-mc chunk draws, recurses and norms at a time; a divisor of
# TAIL_CHUNK, so a full chunk is 10 equal blocks and a traced run's summed
# per-call flop count does not depend on the order the workers finish in
_TAIL_ROWS = 50
# A variance row block puts at least _MIN_BLOCK_VALUES coefficients (rows * (2N+1))
# through a stepper call, since each step of a call costs about 0.2 ms of Python
# overhead (0.19 ms on one row at 2 substeps); it holds about 128 KiB of noise
# increments a step, whatever N.  On the variance-test CLI run at N = 16 and 64
# steps (2 shared vCPUs), blocks of 125 rows (4125 coefficients) were slower than
# blocks of 500 in 8 of 8 alternated runs, by 10% in the median, and blocks of
# 249 were not.
_MIN_BLOCK_VALUES = 8192
# a variance path whose snapshot mass sum |u_hat|^2 exceeds this many times its
# law's mean (2N+1)(1 + t) has diverged, finite or not: it is left out and
# counted as blown up.  Healthy paths stay below 2x (2500 paths at N = 16,
# dt = 1/256); a path that diverges overshoots by many orders of magnitude.
DIVERGED_MASS_FACTOR = 100.0
# output frequencies and sigma0 candidates per block of the multiplier scan
_N_BLOCK = 8
_SIGMA_BLOCK = 4


# ---------------------------------------------------------------------------
# divisor arithmetic


def divisor_count(n: int) -> int:
    """Exact number of divisors by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    cnt = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            cnt += 1 if i * i == n else 2
        i += 1
    return cnt


def divisor_bound_scan(limit: int, delta: float) -> tuple[float, int]:
    """(max_{1 <= n <= limit} d(n) / n^delta, the first n attaining it) via a
    harmonic sieve.

    The sieve costs sum_d limit/d = O(limit log limit) slice updates.  Each
    range error's message starts with the argument it rejects.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    counts = np.zeros(limit + 1, dtype=np.int32)
    for d in range(1, limit + 1):
        counts[d::d] += 1
    n = np.arange(1, limit + 1, dtype=np.float64)
    ratios = counts[1:] / n**delta
    i = int(np.argmax(ratios))
    return float(ratios[i]), i + 1


# ---------------------------------------------------------------------------
# convolution sums (two-factor lattice sums)


def lemma_exponent(beta: float, gamma: float) -> float:
    """Decay exponent alpha of sum <n-k1>^-beta <n-k2>^-gamma ~ <k1-k2>^-alpha:

    gamma if beta > 1; gamma - LEMMA_EPS at beta = 1; beta + gamma - 1 if beta < 1.
    """
    if beta > 1.0:
        return gamma
    if beta == 1.0:
        return gamma - LEMMA_EPS
    return beta + gamma - 1.0


def convolution_sum_check(
    beta: float, gamma: float, k1: int, k2: int, cutoff: int
) -> tuple[float, float]:
    """Returns (lhs, bound shape) for the two-factor sum.

    lhs = sum_{|n| <= cutoff} <n - k1>^-beta <n - k2>^-gamma and the bound
    shape is <k1 - k2>^-alpha with alpha from the three-case rule.  Requires
    beta >= gamma >= 0 and beta + gamma > 1.
    """
    if not (beta >= gamma >= 0.0 and beta + gamma > 1.0):
        raise ValueError("need beta >= gamma >= 0 and beta + gamma > 1")
    n = frequencies(cutoff).astype(np.float64)  # float, so a k1 or k2 beyond int64 still subtracts
    lhs = float(np.sum(bracket(n - k1) ** (-beta) * bracket(n - k2) ** (-gamma)))
    alpha = lemma_exponent(beta, gamma)
    shape = float(bracket(np.float64(k1 - k2)) ** (-alpha))
    return lhs, shape


# ---------------------------------------------------------------------------
# trilinear-estimate multiplier


@dataclass(frozen=True)
class MultiplierReport:
    value: float
    arg_n: int
    arg_tau: float
    kernel_exponent: float
    kernel_window_ok: bool  # 2/3 < (b - a) p' < 1 with a = -b', needed by the kernel derivation
    cutoff: int


def _sigma0_candidates(cutoff: int) -> np.ndarray:
    """Default sigma0 sweep, the same for every n: {0, +-2^k <= 4 cutoff^2}
    united with the near-diagonal peaks -2 d1 d3; all integers."""
    top = 4 * cutoff**2
    geo = [0]
    v = 1
    while v <= top:
        geo.extend((v, -v))
        v *= 2
    # exact kernel peaks -2 d1 d3 of the near-diagonal triples
    offsets = [d for d in range(-8, 9) if d != 0]
    res = {-2 * d1 * d3 for d1 in offsets for d3 in offsets}
    cand = np.asarray(sorted(set(geo) | res), dtype=np.int64)
    return cand[np.abs(cand) <= top]


def multiplier_supremum_report(
    params: XsbParams, cutoff: int, tau_grid: Optional[Sequence[float]] = None
) -> MultiplierReport:
    """Truncated supremum of the reduced trilinear multiplier.

    For each output frequency n and modulation sigma0 = tau - n^2, sums over
    |n1|, |n3| <= cutoff (n2 = n1 + n3 - n forced, |n2| <= cutoff, diagonal
    n1 = n and n3 = n excluded)

        <n>^{s p'} <n1 n2 n3>^{-s p'} <n-n1>^{-a p'} <n-n3>^{-a p'}
            * <sigma0 + 2 (n-n1)(n-n3)>^{-kappa},

    with a = -b', p' the dual exponent and kappa = 3 (b - a) p' - 2 the
    closed-form modulation kernel exponent left after integrating the three
    intermediate modulations.  The kernel derivation needs
    2/3 < (b - a) p' < 1; outside that window the report carries
    kernel_window_ok = False but the quantity is still evaluated as written.
    Exponents outside the window -1/p < b' < 0 < b < 1 - 1/p are an error.
    The sup is taken over n >= 0 (it is invariant under joint sign flip);
    ties go to the first (n, sigma0) in scan order.

    The kernel sees (n1, n3) only through the integer h = 2 (n-n1)(n-n3), so
    each n's base weights are first summed per distinct h (one bincount);
    each value is then <n>^{s p'} sum_h W_n(h) <sigma0 + h>^{-kappa}.  The
    default sigma0 candidates are integers and the same for every n, so the
    kernel is one table over the integers |sigma0 + h| <= 8 cutoff^2 and
    all (n, sigma0) values come from an einsum of W with gathered kernel
    blocks.  A tau_grid gives each n its own sigma0, so its kernel is
    evaluated per n over that n's reachable h.  Both are blocked over n and
    sigma0 to keep memory at O(block * H).
    """
    if not params.trilinear_window_ok():
        raise ValueError(f"need -1/p < bprime < 0 < b < 1 - 1/p, got b = {params.b!r}, bprime = {params.bprime!r}, p = {params.p!r}")
    pd = params.p_dual
    a = -params.bprime
    kappa = 3.0 * (params.b - a) * pd - 2.0
    window_ok = 2.0 / 3.0 < (params.b - a) * pd < 1.0
    sp = params.s * pd
    ap = a * pd
    N = cutoff
    span = 2 * N + 1

    m = frequencies(N)
    wm = bracket(m) ** (-sp)
    # <n2>^{-sp} padded with zeros over n2 in [-3N, 2N]: its Hankel windows are the n2 weights
    wn2 = np.zeros(5 * N + 1)
    wn2[2 * N : 4 * N + 1] = wm
    # output frequency n reaches the offsets d1 = n - n1, d3 = n - n3 when both lie in
    # [n - N, n + N] and |n2| = |n - d1 - d3| <= N; over 0 <= n <= N that is
    # d1, d3, d1 + d3 in [-N, 2N] and |d1 - d3| <= 2N.  Number the distinct nonzero
    # products d1 d3 so reached; every other pair has zero weight and reads column 0.
    d = np.arange(-N, 2 * N + 1)
    prods = np.multiply.outer(d, d)
    pair = np.add.outer(d, d)
    off = (pair < -N) | (pair > 2 * N) | (prods == 0)
    np.subtract.outer(d, d, out=pair)
    off |= np.abs(pair, out=pair) > 2 * N
    prods[off] = -2 * N * N
    prods += 2 * N * N  # d1 d3 lies in [-2N^2, N^2]
    del pair, off
    reached = np.zeros(3 * N * N + 1, dtype=bool)
    reached[prods] = True
    col = (np.cumsum(reached, dtype=np.int32) - 1)[prods][::-1, ::-1]  # n1 (n3) order from row N - n
    h = 2 * (np.flatnonzero(reached) - 2 * N * N)
    del prods, reached

    base = np.empty((span, span))
    cols = np.empty((span, span), dtype=np.intp)
    W = np.empty((_N_BLOCK, h.size))

    def fill_weights(k: int, n: int) -> None:
        """W[k] = the base weights of output frequency n summed per column of h."""
        w1 = wm * bracket((n - m).astype(np.float64)) ** (-ap)
        w1[n + N] = 0.0  # n1 = n excluded; same vector reused for n3
        np.multiply.outer(w1, w1, out=base)
        np.multiply(base, sliding_window_view(wn2[N - n : 5 * N + 1 - n], span), out=base)  # n2 = n1 + n3 - n
        np.copyto(cols, col[N - n : 3 * N + 1 - n, N - n : 3 * N + 1 - n])
        W[k] = np.bincount(cols.ravel(), weights=base.ravel(), minlength=h.size)

    if tau_grid is None:
        cand = _sigma0_candidates(cutoff)  # sigma0, the same for every n
        # <x>^{-kappa} at every integer |sigma0 + h| <= 8 N^2, computed in place as bracket() does
        table = np.arange(8 * N * N + 1, dtype=np.float64)
        np.multiply(table, table, out=table)
        np.sqrt(np.add(1.0, table, out=table), out=table)
        np.power(table, -kappa, out=table)
        idx = np.empty((_SIGMA_BLOCK, h.size), dtype=np.int64)
        kern = np.empty((_SIGMA_BLOCK, h.size))
    else:
        cand = np.asarray(tau_grid, dtype=np.float64)  # tau = sigma0 + n^2
    n_sigma = cand.size
    best = (-np.inf, 0, 0.0)
    for n0 in range(0, N + 1, _N_BLOCK):
        ns = np.arange(n0, min(n0 + _N_BLOCK, N + 1))
        for k, n in enumerate(ns):
            fill_weights(k, n)
        vals = np.empty((ns.size, n_sigma))
        for c0 in range(0, n_sigma, _SIGMA_BLOCK):
            c = slice(c0, min(c0 + _SIGMA_BLOCK, n_sigma))
            if tau_grid is None:
                x = idx[: c.stop - c0]
                np.add(cand[c, None], h, out=x)
                np.take(table, np.abs(x, out=x), out=kern[: c.stop - c0])
                vals[:, c] = np.einsum("nh,ch->nc", W[: ns.size], kern[: c.stop - c0])
                continue
            for k, n in enumerate(ns):
                live = np.flatnonzero(W[k])  # the h this n reaches
                kern_n = bracket(cand[c, None] - float(n) ** 2 + h[live]) ** (-kappa)
                vals[k, c] = np.einsum("h,ch->c", W[k, live], kern_n)
        vals *= bracket(ns.astype(np.float64))[:, None] ** (params.s * pd)
        i = int(np.argmax(vals))  # first maximum in (n, sigma0) order, as the scan order
        if vals.flat[i] > best[0]:
            k, c = divmod(i, n_sigma)
            n = int(ns[k])
            s0 = float(cand[c]) if tau_grid is None else float(cand[c]) - float(n) ** 2
            best = (float(vals.flat[i]), n, s0 + float(n) ** 2)
    return MultiplierReport(
        value=float(best[0]),
        arg_n=int(best[1]),
        arg_tau=float(best[2]),
        kernel_exponent=float(kappa),
        kernel_window_ok=bool(window_ok),
        cutoff=cutoff,
    )


# ---------------------------------------------------------------------------
# trilinear ratio over random windowed trajectories


def trilinear_forcing_block(U1: np.ndarray, U2: np.ndarray, U3: np.ndarray) -> np.ndarray:
    """nonres + res of the trilinear form for blocks of coefficient rows (..., 2N+1).

    Equals the full product u1 conj(u2) u3 truncated to [-N, N] minus the two
    diagonal sums: F - u1 * sum(conj(u2) u3) - u3 * sum(u1 conj(u2)).
    """
    N = (U1.shape[-1] - 1) // 2
    L = alias_free_length(N)
    w = to_grid(U1, L) * np.conj(to_grid(U2, L)) * to_grid(U3, L)
    full = from_grid(w, N)
    A = np.sum(np.conj(U2) * U3, axis=-1, keepdims=True)
    B = np.sum(U1 * np.conj(U2), axis=-1, keepdims=True)
    return full - U1 * A - U3 * B


@dataclass(frozen=True)
class TrilinearStats:
    count: int
    filtered: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float


def trilinear_ratio(
    ensemble_size: int,
    params: XsbParams,
    cutoff: int,
    rng: np.random.Generator,
    alpha: float,
    steps: int,
) -> TrilinearStats:
    """Empirical distribution of the trilinear-output to input-norm ratio.

    Each draw builds three independent trajectories u_j = S(t) f_j - i psi_j
    (Bessel-smoothed random data plus a convolution sample, smoothing `alpha`
    so every norm in play is finite), forms the split nonlinearity slice by
    slice, and measures

        || nonres + res ||_{X^{s,b'}} / prod_j || u_j ||_{X^{s,b}}

    in the windowed surrogate norms.  Draws with a zero factor in the
    denominator are filtered out.  The estimate's stability under cutoff
    doubling is the testable content; no absolute constant is asserted.
    """
    N = cutoff
    op = bessel_operator(N, alpha)
    grid = make_grid(params.T, steps)
    phases = propagator_phases(N, grid)
    trajs = []
    for _ in range(3):
        g = _unit_complex_normal(rng, (ensemble_size, 2 * N + 1))
        f = op.multiplier * g
        lin = f[:, None, :] * phases[None, :, :]
        psi = convolution_paths_block(op, grid, rng, ensemble_size)
        trajs.append(lin - 1j * psi)
    u1, u2, u3 = trajs
    forcing = trilinear_forcing_block(u1, u2, u3)
    num = xsb_norm_batch(forcing, grid, replace(params, b=params.bprime))
    dens = [xsb_norm_batch(u, grid, params) for u in (u1, u2, u3)]
    den = dens[0] * dens[1] * dens[2]
    keep = den > 0
    ratios = num[keep] / den[keep]
    if ratios.size == 0:
        raise ValueError("all draws filtered out (zero-norm inputs)")
    return TrilinearStats(
        count=int(ratios.size),
        filtered=int(ensemble_size - ratios.size),
        mean=float(np.mean(ratios)),
        p50=float(np.percentile(ratios, 50)),
        p90=float(np.percentile(ratios, 90)),
        p99=float(np.percentile(ratios, 99)),
        max=float(np.max(ratios)),
    )


# ---------------------------------------------------------------------------
# tail bound Monte Carlo


@dataclass(frozen=True)
class TailFitReport:
    multipliers: tuple
    lambda_values: tuple
    survivals: tuple
    usable: tuple
    median: float
    slope: float
    intercept: float
    r_squared: float
    rate: float
    theta: float
    gamma_sq: float
    rate_scale_product: float
    samples: int


def _chunk_map(fn, samples: int, chunk: int, rng: np.random.Generator, workers: int) -> list:
    """fn(stream, size) over `samples` split into chunks of at most `chunk`,
    in chunk order.  Each chunk gets its own Philox stream from a seed drawn
    up front from rng, so results do not depend on worker count or on
    completion order."""
    nchunks = (samples + chunk - 1) // chunk
    sizes = [min(chunk, samples - i * chunk) for i in range(nchunks)]
    seeds = [int(s) for s in rng.integers(0, 2**62, size=nchunks)]

    return _pool_map(lambda i: fn(philox_stream(seeds[i]), sizes[i]), nchunks, workers)


def _pool_map(fn, n: int, workers: int) -> list:
    """[fn(i) for i in range(n)], in index order, on up to `workers` threads."""
    workers = min(workers, n)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


def tail_estimate_mc(
    op: NoiseOperator,
    params: XsbParams,
    lambdas: Sequence[float],
    samples: int,
    rng: np.random.Generator,
    steps: int = 64,
    workers: int = 1,
) -> TailFitReport:
    """Gaussian-shape fit of the survival function of the surrogate norm.

    lambdas are multipliers applied to the ensemble median; at each level the
    survival probability P(||psi|| > lambda) is estimated and log P is fitted
    linearly against lambda^2.  Levels with survival 0 or 1 are dropped;
    fewer than 3 usable levels is an error.  Requires samples >= 1000, at
    least 3 distinct positive lambdas and b < 1 - 1/q (the temporal weight
    must be integrable on the window); each is checked before any path is
    drawn.

    A chunk of TAIL_CHUNK paths draws its increments with the bits of one
    whole convolution block, _TAIL_ROWS paths at a time through
    noise._increment_blocks_kept_real, into slots 1..steps of one reused
    buffer of that many paths; each row block is recursed in place and
    normed by xsb_norm_batch, whose bits do not depend on how paths are
    grouped.  So a chunk holds its real parts, one row block and one norm
    pass, not its whole complex block.
    """
    if samples < 1000:
        raise ValueError(f"samples must be at least 1000, got {samples}")
    mult = np.asarray(list(lambdas), dtype=np.float64)
    if np.any(mult <= 0):
        raise ValueError("lambdas must be positive multipliers")
    if mult.size < 3:
        raise ValueError(f"lambdas must hold at least 3 lambda levels, got {mult.size}")
    if np.unique(mult).size < 3:
        raise ValueError(f"lambdas must hold at least 3 distinct levels, got {mult.tolist()}")
    if not params.b < 1.0 - 1.0 / params.q:
        raise ValueError(f"need b < 1 - 1/q = {1.0 - 1.0 / params.q!r} for a finite tail scale, got {params.b!r}")
    grid = make_grid(params.T, steps)
    dt = _check_uniform(grid)

    def one(sub: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty(size)
        psi = np.zeros((min(_TAIL_ROWS, size), steps + 1, 2 * op.cutoff + 1), dtype=np.complex128)
        for rows, z in _increment_blocks_kept_real(sub, (size, steps, psi.shape[2]), dt, _TAIL_ROWS, psi[:, 1:]):
            block = psi[: len(z)]
            _free_recursion(op, block, dt)
            out[rows] = xsb_norm_batch(block, grid, params)
        return out

    norms = np.concatenate(_chunk_map(one, samples, TAIL_CHUNK, rng, workers))
    med = float(np.median(norms))
    lam = mult * med
    surv = np.array([np.mean(norms > lv) for lv in lam])
    usable = (surv > 0.0) & (surv < 1.0)
    if int(np.sum(usable)) < 3:
        raise ValueError(
            f"fewer than 3 usable lambda levels (survivals {surv.tolist()})"
        )
    x = lam[usable] ** 2
    y = np.log(surv[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    theta = 3.0 - 2.0 * params.b - 2.0 / params.q
    gsq = gamma_norm(op, params.s, params.p) ** 2
    rate = -float(slope)
    return TailFitReport(
        multipliers=tuple(float(v) for v in mult),
        lambda_values=tuple(float(v) for v in lam),
        survivals=tuple(float(v) for v in surv),
        usable=tuple(bool(v) for v in usable),
        median=med,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r2),
        rate=rate,
        theta=float(theta),
        gamma_sq=float(gsq),
        rate_scale_product=float(rate * params.T**theta * gsq),
        samples=int(samples),
    )


# ---------------------------------------------------------------------------
# variance-(1+t) evolution of the truncated flow


@dataclass(frozen=True)
class VarianceReport:
    times: tuple
    variances: tuple  # per time, per mode
    max_rel_dev: float
    slope: float
    per_mode_slope_range: tuple
    blowup_fraction: float
    flagged: bool
    samples: int
    substeps: int

    def target(self, t: float) -> float:
        return 1.0 + t


def _variance_block_rows(dim: int) -> int:
    """Paths per variance row block: the fewest that put _MIN_BLOCK_VALUES
    coefficients through a stepper call.  A chunk smaller than this is one
    block."""
    return -(-_MIN_BLOCK_VALUES // dim)


def variance_invariance_test(
    cfg: SolverConfig,
    samples: int,
    rng: np.random.Generator,
    substeps: int = 2,
    workers: int = 1,
) -> VarianceReport:
    """Per-mode E|u_hat(t, n)|^2 of the renormalized truncated flow on cfg's
    grid, with white-noise data (variance 1) and phi = Id, recorded at t in
    {T/4, T/2, T}, T = cfg.horizon; the exact law has variance 1 + t in every
    mode.  cfg.steps must be a multiple of 4, checked before any path is drawn.

    The ensemble is integrated with the batched interaction-picture RK4
    stepper (the first-order stepper's per-step mass inflation overflows at
    this data scale).  Noise increments per step are exact in law.  A
    chunk of B paths is cut into row blocks of ceil(B / k) paths, with
    k = max(1, B // _variance_block_rows(2N+1)), the last one shorter by
    what is left (10 blocks of 250 for 2500 paths at N = 16), so no block
    falls far below the stepper floor; the increments are drawn one block
    at a time, with the bits of one whole draw per chunk, and each block
    goes through the stepper one segment between recorded times per call,
    from the state the last call returned.  Paths that go non-finite, or
    whose snapshot mass exceeds DIVERGED_MASS_FACTOR times its mean
    (2N+1)(1 + t), are excluded and counted as blown up; a blow-up fraction
    above 1% flags the report.
    """
    steps, dt = cfg.steps, cfg.dt
    if steps % 4:
        raise ValueError(f"horizon/dt must be a multiple of 4 so T/4, T/2, T are grid times, got {steps}")
    rec = [steps // 4, steps // 2, steps]
    dim = 2 * cfg.cutoff + 1
    op = identity_operator(cfg.cutoff)

    block = _variance_block_rows(dim)

    # the largest snapshot mass a kept path may have, per recorded time
    mass_bound = DIVERGED_MASS_FACTOR * dim * (1.0 + np.array(rec) * dt)

    def one(sub: np.random.Generator, B: int):
        g = _unit_complex_normal(sub, (B, dim))
        dens = np.empty((len(rec), B, dim))  # |u|, then |u|^2 in place
        # a path that overflows is counted below, as in `solve`; the errstate
        # sits here because a pool thread does not inherit the caller's
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, Z in _increment_blocks(sub, (B, steps, dim), dt, -(-B // max(1, B // block))):
                U = g[rows]
                for i, (a, b) in enumerate(zip((0, *rec), rec)):
                    U = evolve_wick_rk4ip(U, op.multiplier, Z[:, a:b], dt, substeps)
                    np.abs(U, out=dens[i, rows])
            # the last block's increments and state go before the
            # reduction's copies (on wick_ensemble they set the peak RSS)
            del U, Z
            np.square(dens, out=dens)  # np.abs(u) ** 2, bit for bit
            # a nan or inf snapshot fails the bound too, so this also drops
            # every non-finite path
            kept = np.all(np.sum(dens, axis=2) <= mass_bound[:, None], axis=0)
        sq_sum = np.sum(dens[:, kept], axis=1)  # (len(rec), dim)
        return sq_sum, int(np.sum(kept)), B

    parts = _chunk_map(one, samples, VARIANCE_CHUNK, rng, workers)
    total_sq = sum(p[0] for p in parts)
    total_good = sum(p[1] for p in parts)
    total = sum(p[2] for p in parts)
    if total_good == 0:
        raise ValueError("every path blew up")
    variances = total_sq / total_good
    ts = np.array([r * dt for r in rec])
    targets = 1.0 + ts
    rel = np.abs(variances - targets[:, None]) / targets[:, None]
    # slope of variance vs t, pooled over modes and per mode
    tfit = np.concatenate(([0.0], ts))
    vfit = np.vstack([np.full(dim, 1.0), variances])  # initial law is exact
    pooled = np.polyfit(tfit, vfit.mean(axis=1), 1)[0]
    per_mode = np.polyfit(tfit, vfit, 1)[0]
    frac = 1.0 - total_good / total
    return VarianceReport(
        times=tuple(float(t) for t in ts),
        variances=tuple(tuple(float(x) for x in row) for row in variances),
        max_rel_dev=float(np.max(rel)),
        slope=float(pooled),
        per_mode_slope_range=(float(np.min(per_mode)), float(np.max(per_mode))),
        blowup_fraction=float(frac),
        flagged=bool(frac > 0.01),
        samples=int(total),
        substeps=int(substeps),
    )


# ---------------------------------------------------------------------------
# scaling / criticality arithmetic


@dataclass(frozen=True)
class CriticalityReport:
    """Scaling-critical exponents and the equation-vs-noise comparison.

    Classification compares the critical regularity with the spatial
    regularity of the relevant Gaussian object: rougher noise than critical
    is supercritical, matching is critical, smoother is subcritical.
    """

    dimension: int
    p: float
    s_crit_p: float
    s_crit_inf: float
    s_hat_crit_p: float
    white_noise_reg_sobolev: float
    white_noise_reg_fl: float
    heat_convolution_reg: float
    classifications: dict


def _classify(critical: float, noise_reg: float) -> str:
    if noise_reg > critical:
        return "subcritical"
    if noise_reg == critical:
        return "critical"
    return "supercritical"


def criticality_report(d: int, p: float = 2.0) -> CriticalityReport:
    """Pure arithmetic: critical indices and classifications for dimension d.

    s_crit(p) = d/p - 1 (so s_crit(inf) = -1), the Fourier-Lebesgue critical
    index s_hat_crit(p) = d - 1 - d/p, spatial white noise regularity -d/2
    on the Sobolev scale and -d/p on the FL scale (boundary values; the
    objects live just below), and the heat stochastic-convolution regularity
    1 - d/2.  The dispersive equation with white noise matches its critical
    index exactly at d = 1 on both scales; the heat-flow counterpart matches
    s_crit(inf) = -1 at d = 4 and is subcritical below.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not p > 1:
        raise ValueError("p must lie in (1, inf]")
    dp = 0.0 if math.isinf(p) else d / p
    s_crit_p = dp - 1.0
    s_hat = d - 1.0 - dp
    wn_sob = -d / 2.0
    wn_fl = -dp
    heat = 1.0 - d / 2.0
    classifications = {
        "snls_sobolev": _classify(d / 2.0 - 1.0, wn_sob),
        "snls_fourier_lebesgue": _classify(s_hat, wn_fl),
        "sqe": _classify(-1.0, heat),
    }
    return CriticalityReport(
        dimension=int(d),
        p=float(p),
        s_crit_p=float(s_crit_p),
        s_crit_inf=-1.0,
        s_hat_crit_p=float(s_hat),
        white_noise_reg_sobolev=float(wn_sob),
        white_noise_reg_fl=float(wn_fl),
        heat_convolution_reg=float(heat),
        classifications=classifications,
    )
