"""Norms: Fourier-Lebesgue, Sobolev (p = 2), gamma-radonifying and
Hilbert-Schmidt operator norms, and a discrete restriction-norm proxy built
from the interaction representation.

The restriction norm of a gridded trajectory u on [0, T] is computed from
one canonical windowed extension: w(t) = S(-t) u(t) is extended to
[-2T, 2T] by its boundary values, multiplied by a C^2 bump that is 1 on
[0, T] and supported in [-2T, 2T], transformed in time by a zero-padded
discrete transform, and measured in l^p_n L^q_tau with weights <n>^s <tau>^b.
At q = 2 the tau-sum of each mode is a quadratic form in the grid samples
whose matrix is Toeplitz away from the two boundary rows, because the window
is 1 on [0, T]; it is evaluated through a cached circulant embedding
(_xsb_circulant), one FFT of length about 2M per mode plus the two boundary
rows, instead of the transform.  The transform runs at q != 2 and is the
q = 2 form's test oracle.
This is a quadrature surrogate for the localized norm, not an infimum over
extensions; all inequality checks in this package compare like with like
under the same window.  For a free trajectory u(t) = S(t) f the surrogate
factorizes exactly into (temporal window factor) * (FL norm of f), which the
tests exploit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .fields import SpectralField, _five_smooth, frequencies, propagator_phases
from .noise import NoiseOperator, Trajectory, _check_uniform, make_grid

__all__ = [
    "XsbParams",
    "TimeWindow",
    "raised_cosine_ramp",
    "fl_norm",
    "gamma_norm",
    "hs_norm",
    "operator_norm",
    "xsb_norm",
    "xsb_norm_batch",
    "temporal_window_factor",
    "homogeneous_estimate_check",
    "discrete_duhamel",
    "bracket",
]

DEFAULT_PAD = 8  # zero-pad factor of the temporal transform
MIN_GRID_POINTS = 16
_CHUNK = 64  # paths per pass of xsb_norm_batch


def bracket(x) -> np.ndarray:
    """Japanese bracket <x> = (1 + x^2)^(1/2), used for both n and tau."""
    x = np.asarray(x, dtype=np.float64)
    return np.sqrt(1.0 + x * x)


@dataclass(frozen=True)
class XsbParams:
    """Exponent tuple (s, b, b', p, q, T) governing the norms and estimates."""

    s: float
    b: float
    bprime: float
    p: float
    q: float
    T: float

    def __post_init__(self):
        # each message starts with the field it rejects (config names the key from it)
        if not (0 < self.T <= 1):
            raise ValueError("T must lie in (0, 1]")
        if not 1 < self.p < np.inf:
            raise ValueError("p must lie in (1, inf)")
        if not 1 < self.q < np.inf:
            raise ValueError("q must lie in (1, inf)")

    @property
    def p_dual(self) -> float:
        return self.p / (self.p - 1.0)

    def trilinear_window_ok(self) -> bool:
        """-1/p < b' < 0 < b < 1 - 1/p, the admissible trilinear window."""
        return -1.0 / self.p < self.bprime < 0.0 < self.b < 1.0 - 1.0 / self.p

    def with_exponent(self, b: float) -> "XsbParams":
        return replace(self, b=b)


def raised_cosine_ramp(v: np.ndarray) -> np.ndarray:
    """C^2 ramp from 0 to 1 on [0, 1]; its derivative is the raised-cosine
    (Hann) window, so first and second derivatives vanish at both ends."""
    v = np.asarray(v, dtype=np.float64)
    return v - np.sin(2.0 * np.pi * v) / (2.0 * np.pi)


@dataclass(frozen=True)
class TimeWindow:
    """C^2 bump eta(t / scale): 1 on [0, scale], supported in [-2 scale, 2 scale]."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def __call__(self, t) -> np.ndarray:
        u = np.asarray(t, dtype=np.float64) / self.scale
        out = np.zeros_like(u)
        left = (u >= -2.0) & (u < 0.0)
        mid = (u >= 0.0) & (u <= 1.0)
        right = (u > 1.0) & (u <= 2.0)
        out[left] = raised_cosine_ramp((u[left] + 2.0) / 2.0)
        out[mid] = 1.0
        out[right] = 1.0 - raised_cosine_ramp(u[right] - 1.0)
        return out


def fl_norm(f: SpectralField, s: float, p: float) -> float:
    """Fourier-Lebesgue norm (sum <n>^{sp} |u_hat(n)|^p)^(1/p); H^s at p = 2.

    p = inf is the weighted sup over modes.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    w = bracket(f.ns) ** s * np.abs(f.coeffs)
    if np.isinf(p):
        return float(np.max(w))
    return float(np.sum(w**p) ** (1.0 / p))


def gamma_norm(op: NoiseOperator, s: float, p: float) -> float:
    """|| <n>^s (sum_k |phi(e_k)(n)|^2)^(1/2) ||_{l^p_n} over the truncation.

    For the Bessel multiplier this is ||<n>^{s - alpha}||_{l^p}; at p = 2 it
    coincides with the Hilbert-Schmidt norm into H^s.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    w = bracket(frequencies(op.cutoff)) ** s * op.row_l2()
    if np.isinf(p):
        return float(np.max(w))
    return float(np.sum(w**p) ** (1.0 / p))


def hs_norm(op: NoiseOperator, s: float) -> float:
    """Hilbert-Schmidt norm into H^s; equals gamma_norm(op, s, 2) exactly."""
    return gamma_norm(op, s, 2.0)


def operator_norm(op: NoiseOperator) -> float:
    """l2 -> l2 operator norm: the largest |multiplier| or singular value."""
    if op.is_multiplier:
        return float(np.max(np.abs(op.multiplier)))
    return float(np.linalg.norm(op.matrix, 2))


def _validate_xsb_grid(times: np.ndarray, params: XsbParams) -> float:
    dt = _check_uniform(times)
    if len(times) < MIN_GRID_POINTS:
        raise ValueError(f"grid too coarse: need at least {MIN_GRID_POINTS} points")
    if abs(times[0]) > 1e-12 or abs(times[-1] - params.T) > 1e-9 * max(1.0, params.T):
        raise ValueError("trajectory grid must cover [0, T]")
    return dt


def _interaction(states: np.ndarray, times: np.ndarray, params: XsbParams):
    """(S(-t) u on each slice of states, dt) after the grid checks."""
    dt = _validate_xsb_grid(times, params)
    modes = states.shape[-1]
    grid = np.asarray(times, dtype=np.float64).tobytes()
    return states * _inverse_phases((modes - 1) // 2, grid), dt


@functools.lru_cache(maxsize=4)
def _inverse_phases(cutoff: int, grid: bytes) -> np.ndarray:
    """conj(propagator_phases(cutoff, t)) on the float64 times whose bytes are
    grid.  Keyed by the bytes, not by (M, dt): two grids that agree in
    (M, dt) may still differ in their last bits.  Read-only: the cache hands
    the array to every caller."""
    phases = np.conj(propagator_phases(cutoff, np.frombuffer(grid)))
    phases.setflags(write=False)
    return phases


def _modulation_lq(v: np.ndarray, dt: float, b: float, q: float, pad: int) -> np.ndarray:
    """Temporal factor per mode: (sum <tau>^{bq} |V|^q dtau / (2 pi))^(1/q).

    v has shape (..., J, modes); V(tau) = dt * zero-padded FFT along the time
    axis, tau on the discrete transform grid.  A global phase from the grid
    origin drops out of |V|.
    """
    J = v.shape[-2]
    L = pad * J
    V = np.abs(np.fft.fft(v, n=L, axis=-2)) * dt
    tau = 2.0 * np.pi * np.fft.fftfreq(L, d=dt)
    dtau = 2.0 * np.pi / (L * dt)
    wt = bracket(tau) ** (b * q)
    acc = np.einsum("...tm,t->...m", V**q, wt)
    return (acc * dtau / (2.0 * np.pi)) ** (1.0 / q)


def _extend_and_window(states: np.ndarray, times: np.ndarray, params: XsbParams):
    """Windowed boundary-value extension of the interaction representation.

    states: (..., M+1, modes) on the uniform grid over [0, T].  Returns
    (v, dt) with v on the extended grid of 4M+1 points spanning [-2T, 2T],
    multiplied by the fixed window TimeWindow(T).
    """
    w, dt = _interaction(states, times, params)
    modes = states.shape[-1]
    M = len(times) - 1
    J = 4 * M + 1
    i0 = 2 * M
    v = np.empty(states.shape[:-2] + (J, modes), dtype=np.complex128)
    v[..., :i0, :] = w[..., :1, :]
    v[..., i0 : i0 + M + 1, :] = w
    v[..., i0 + M + 1 :, :] = w[..., -1:, :]
    v *= _extended_window(M, dt, params.T)[:, None]
    return v, dt


def _extended_window(M: int, dt: float, T: float) -> np.ndarray:
    """TimeWindow(T) on the extended grid -2T + dt j, j = 0 .. 4M."""
    return TimeWindow(T)(-2.0 * T + dt * np.arange(4 * M + 1))


@functools.lru_cache(maxsize=8)
def _xsb_circulant(M: int, dt: float, T: float, b: float, pad: int):
    """The q = 2 surrogate on M+1 grid points with step dt as a Toeplitz form.

    With w the samples of S(-t)u of one mode, v = diag(win) E w its windowed
    boundary-value extension (4M+1 points) and V = dt * FFT_L(v),
    L = pad (4M+1), the tau-sum of _modulation_lq at q = 2 is

        sum_l <tau_l>^{2b} |V_l|^2 = w^H G w,
        G = dt^2 (diag(win) E)^T C (diag(win) E),   C[i, k] = c[|i - k|],

    with c = FFT_L(<tau>^{2b}), real and even mod L because the tau grid is
    symmetric.  Columns 1 .. M-1 of diag(win) E are single points, so that
    block of G is the Toeplitz matrix dt^2 mid_j mid_k c[|j - k|]; rows and
    columns 0 and M carry the boundary ramps, and C applied to a ramp is one
    length-L circular convolution.  Returns

        inner   the window weights mid_j on the grid, zero at j = 0 and M;
        lam     dt^2 / P times the real spectrum of the circulant embedding
                of c[0 .. M] at length P, the smallest 5-smooth P >= 2M + 1,
                so that y^H (Toeplitz block) y = sum_l lam_l |FFT_P(y)_l|^2
                for y = inner * w;
        rows    rows 0 and M of G, shape (2, M+1);
        corner  their entries in columns 0 and M, shape (2, 2).

    O(L log L + M) time and memory; no (M+1)^2 array is formed.  Read-only:
    the cache hands the arrays to every caller.
    """
    J = 4 * M + 1
    L = pad * J
    i0 = 2 * M  # extended index of t = 0
    a = bracket(2.0 * np.pi * np.fft.fftfreq(L, d=dt)) ** (2.0 * b)
    c = np.fft.fft(a).real
    win = _extended_window(M, dt, T)
    mid = win[i0 : i0 + M + 1]
    P = _five_smooth(2 * M + 1)
    col = np.zeros(P)
    col[: M + 1] = c[: M + 1]
    col[P - M :] = c[M:0:-1]
    lam = np.fft.fft(col).real * (dt * dt / P)
    inner = mid.copy()
    inner[[0, M]] = 0.0
    ramps = np.zeros((2, L))
    ramps[0, : i0 + 1] = win[: i0 + 1]
    ramps[1, i0 + M : J] = win[i0 + M :]
    cramps = L * np.fft.ifft(a * np.fft.fft(ramps, axis=-1), axis=-1).real  # C @ ramp: FFT_L(c) = L a
    rows = cramps[:, i0 : i0 + M + 1] * mid
    rows[:, [0, M]] = np.einsum("il,kl->ik", ramps, cramps)
    rows *= dt * dt
    corner = rows[:, [0, M]]
    for arr in (inner, lam, rows, corner):
        arr.setflags(write=False)
    return inner, lam, rows, corner


def _modulation_l2(w: np.ndarray, dt: float, T: float, b: float, pad: int) -> np.ndarray:
    """_modulation_lq at q = 2 from the interaction samples w (..., M+1, modes)
    through the Toeplitz form of _xsb_circulant:

        w^H G w = sum_l lam_l |FFT_P(inner w)_l|^2
                  + 2 Re sum_e conj(w_e) (rows_e . w) - sum_{e,f} conj(w_e) corner_ef w_f,

    e, f over the edge samples 0 and M; one length-P FFT per mode.  Sums are
    einsums over real views, not BLAS matmuls: a threaded BLAS sums in an
    order that depends on its thread count, and results must not."""
    M = w.shape[-2] - 1
    inner, lam, rows, corner = _xsb_circulant(M, dt, T, b, pad)
    P = len(lam)
    y = np.zeros(w.shape[:-2] + (w.shape[-1], P), dtype=np.complex128)  # time last, zero-padded
    np.multiply(np.swapaxes(w, -1, -2), inner, out=y[..., : M + 1])
    np.fft.fft(y, axis=-1, out=y)
    yr = y.view(np.float64).reshape(y.shape[:-1] + (P, 2))
    acc = np.einsum("...mlc,...mlc,l->...m", yr, yr, lam)
    x = w.view(np.float64).reshape(w.shape + (2,))
    xe = x[..., [0, M], :, :]
    rx = np.einsum("ek,...kmc->...emc", rows, x)
    acc += 2.0 * np.einsum("...emc,...emc->...m", xe, rx)
    acc -= np.einsum("...emc,ef,...fmc->...m", xe, corner, xe)
    dtau = 2.0 * np.pi / (pad * (4 * M + 1) * dt)
    return np.sqrt(acc * dtau / (2.0 * np.pi))


def xsb_norm(traj: Trajectory, params: XsbParams, pad: int = DEFAULT_PAD) -> float:
    """Windowed restriction-norm surrogate of a trajectory on [0, T].

    || <n>^s <tau>^b (windowed extension of S(-t)u(t))^(t -> tau) ||_{l^p_n L^q_tau}
    with the temporal transform and L^q_tau both discrete.
    """
    return float(_xsb_norms(traj.states[None], traj.times, params, pad)[0])


def xsb_norm_batch(
    states: np.ndarray,
    times: np.ndarray,
    params: XsbParams,
    pad: int = DEFAULT_PAD,
) -> np.ndarray:
    """xsb_norm over an ensemble: states of shape (B, M+1, 2N+1) -> (B,).

    xsb_norm runs the same code on one path; _CHUNK paths at a time bound
    the workspace.
    """
    return _xsb_norms(states, times, params, pad)


def _xsb_norms(states, times, params, pad) -> np.ndarray:
    B = states.shape[0]
    modes = states.shape[-1]
    wn = bracket(frequencies((modes - 1) // 2)) ** params.s
    out = np.empty(B, dtype=np.float64)
    for lo in range(0, B, _CHUNK):
        hi = min(lo + _CHUNK, B)
        if params.q == 2:
            w, dt = _interaction(states[lo:hi], times, params)
            tf = _modulation_l2(w, dt, params.T, params.b, pad)
        else:
            v, dt = _extend_and_window(states[lo:hi], times, params)
            tf = _modulation_lq(v, dt, params.b, params.q, pad)
        weighted = wn * tf
        out[lo:hi] = np.sum(weighted**params.p, axis=-1) ** (1.0 / params.p)
    return out


def temporal_window_factor(params: XsbParams, steps: int = 64) -> float:
    """Temporal factor || <tau>^b (windowed scalar 1)^ ||_{L^q_tau} at
    params.b, on the grid of `steps` + 1 points over [0, T] extended and
    windowed as in xsb_norm, with the same DEFAULT_PAD quadrature.

    For u(t) = S(t) f the surrogate norm equals this factor times
    fl_norm(f, s, p) exactly, because S(-t)u(t) is constant in t.
    """
    times = make_grid(params.T, steps)
    ones = np.ones((steps + 1, 1), dtype=np.complex128)
    v, dt = _extend_and_window(ones, times, params)
    return float(_modulation_lq(v, dt, params.b, params.q, DEFAULT_PAD)[0])


def homogeneous_estimate_check(f: SpectralField, params: XsbParams, steps: int = 64) -> float:
    """xsb_norm of the windowed free flow of f divided by fl_norm(f, s, p).

    The ratio is independent of f: it equals the temporal window factor by
    the factorization identity.  Raises on fl_norm(f) = 0.
    """
    denom = fl_norm(f, params.s, params.p)
    if denom == 0:
        raise ValueError("fl_norm of the datum is zero")
    times = make_grid(params.T, steps)
    traj = Trajectory(times, f.coeffs[None, :] * propagator_phases(f.cutoff, times))
    return xsb_norm(traj, params) / denom


def discrete_duhamel(F: Trajectory) -> Trajectory:
    """Left-endpoint quadrature of t -> integral_0^t S(t - t') F(t') dt':

        I(t_0) = 0,   I(t_{m+1}) = S(dt) (I(t_m) + dt F(t_m)).

    Matches the first-order exponential stepper's quadrature exactly.
    """
    dt = _check_uniform(F.times)
    prop = propagator_phases(F.cutoff, dt)
    out = np.zeros_like(F.states)
    for m in range(len(F.times) - 1):
        out[m + 1] = prop * (out[m] + dt * F.states[m])
    return Trajectory._adopt(F.times, out)

