"""Wick-ordered cubic dynamics on the truncated basis.

The renormalized nonlinearity is N(u) = (|u|^2 - 2 M) u with M the Parseval
mass sum |u_hat(n)|^2.  Truncation semantics are P_N(|P_N u|^2 P_N u): the
cubic product is formed with its full frequency band [-3N, 3N] and only the
final result is truncated, which is what makes the resonant/non-resonant
split an exact identity at finite N.

Two solution procedures are provided: a first-order exponential Euler
stepper for the mild formulation (exact linear flow, exact-in-law noise
increments) and a Picard iteration sharing the same left-endpoint Duhamel
quadrature, so a converged Picard fixed point reproduces the stepper's
trajectory.  A batched 4th-order interaction-picture integrator backs the
Monte-Carlo ensemble studies, where the first-order stepper's per-step mass
inflation is unaffordable at white-noise-scale data.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .fields import SpectralField, _band, _five_smooth, alias_free_length, make_field, propagator_phases, to_grid
from .noise import NoiseOperator, Trajectory, _check_uniform, _draw_increments, make_grid
from .norms import DEFAULT_PAD, XsbParams, _xsb_circulant, discrete_duhamel, xsb_norm

__all__ = [
    "SolverConfig",
    "WickSplit",
    "PicardReport",
    "wick_nonlinearity_direct",
    "wick_trilinear",
    "gauge_transform",
    "solve",
    "picard_iterate",
    "cubic_coeffs_block",
    "wick_coeffs_block",
    "evolve_wick_rk4ip",
]

GRID_SAMPLES = 1 << 16  # grid samples cubic_coeffs_block holds at once: Picard's 1025 rows on 512 points go in groups


@dataclass(frozen=True)
class SolverConfig:
    cutoff: int
    dt: float
    horizon: float
    picard_max_iters: int = 25
    picard_tolerance: float = 1e-10

    def __post_init__(self):
        # each message starts with the field it rejects (config names the key from it)
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        steps = self.horizon / self.dt
        if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
            raise ValueError("dt must divide the horizon")
        if not self.picard_tolerance > 0:
            raise ValueError("picard_tolerance must be positive")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def grid(self) -> np.ndarray:
        return make_grid(self.horizon, self.steps)


@dataclass(frozen=True)
class WickSplit:
    """Non-resonant and resonant parts; their sum is the renormalized cubic."""

    nonres: SpectralField
    res: SpectralField

    @property
    def total(self) -> SpectralField:
        return make_field(self.nonres.cutoff, self.nonres.coeffs + self.res.coeffs)


def cubic_coeffs_block(U: np.ndarray) -> np.ndarray:
    """(|u|^2 u)^ on [-N, N] for a block of coefficient rows (B, 2N+1),
    full-band intermediate via a zero-padded transform on
    alias_free_length(N) points, the frozen grid of solve, picard_iterate
    and wick-check.  A U that is not 2-D is a ValueError.

    Rows go through the grid GRID_SAMPLES // L at a time (at least one),
    so a long block never holds its whole grid at once; each group fills
    its slice of the result.  Each row is transformed alone, so the
    grouping does not change a bit."""
    if U.ndim != 2:
        raise ValueError(f"U must be a (B, 2N+1) block of rows, got shape {U.shape}")
    L = alias_free_length((U.shape[1] - 1) // 2)
    rows = max(1, GRID_SAMPLES // L)
    out = np.empty(U.shape, dtype=np.complex128)
    for lo in range(0, len(U), rows):
        _cubic_on_grid(U[lo : lo + rows], L, out[lo : lo + rows])
    return out


def _cubic_on_grid(U: np.ndarray, L: int, out: np.ndarray) -> np.ndarray:
    phys = to_grid(U, L)
    dens = np.abs(phys)
    np.square(dens, out=dens)  # np.abs(phys) ** 2, bit for bit
    np.multiply(dens, phys, out=phys)
    # from_grid(phys, N), bit for bit, with the transform in place
    return _band(np.fft.fft(phys, axis=-1, norm="forward", out=phys), (U.shape[-1] - 1) // 2, out)


def wick_coeffs_block(U: np.ndarray) -> np.ndarray:
    """Renormalized cubic (|u|^2 - 2M) u for a block of coefficient rows
    (B, 2N+1), on cubic_coeffs_block's grid; a U that is not 2-D is a
    ValueError there."""
    out = cubic_coeffs_block(U)
    out -= 2.0 * np.sum(np.abs(U) ** 2, axis=1, keepdims=True) * U
    return out


def _cubic_coeffs_conv(u: np.ndarray) -> np.ndarray:
    """Same cubic via two plain convolutions of one row; reference path for single fields."""
    N = (len(u) - 1) // 2
    g = np.conj(u[::-1])  # coefficients of conj(u)
    dens = np.convolve(u, g)  # |u|^2 on [-2N, 2N], kept untruncated
    full = np.convolve(dens, u)  # [-3N, 3N]
    return full[2 * N : 4 * N + 1]


def wick_nonlinearity_direct(u: SpectralField) -> SpectralField:
    """(|u|^2 - 2 M) u in coefficient space, truncated to [-N, N] at the end."""
    cubic = _cubic_coeffs_conv(u.coeffs)
    return make_field(u.cutoff, cubic - 2.0 * u.mass() * u.coeffs)


def wick_trilinear(u1: SpectralField, u2: SpectralField, u3: SpectralField) -> WickSplit:
    """Resonant/non-resonant split of the trilinear form.

    nonres(n) sums u1(n1) conj(u2(n2)) u3(n3) over n = n1 - n2 + n3 with the
    diagonal exclusions n != n1 and n != n3; res(n) = -u1(n) conj(u2(n)) u3(n).
    On the diagonal u1 = u2 = u3 = u the two parts sum to the renormalized
    cubic.  Implemented by direct summation over (n1, n3), independently of
    the convolution route, so agreement with wick_nonlinearity_direct is a
    genuine cross-check.
    """
    if not (u1.cutoff == u2.cutoff == u3.cutoff):
        raise ValueError("cutoff mismatch among the three arguments")
    N = u1.cutoff
    dim = 2 * N + 1
    c1, c2, c3 = u1.coeffs, u2.coeffs, u3.coeffs
    # conj(u2) gathered at n2 = n1 + n3 - n; pad over [-3N, 3N] so every
    # gather index is in range and out-of-band n2 contributes zero.
    pad2 = np.zeros(6 * N + 1, dtype=np.complex128)
    pad2[2 * N : 4 * N + 1] = np.conj(c2)
    outer13 = np.outer(c1, c3)
    idx = np.arange(dim)
    gather_base = idx[:, None] + idx[None, :] + 2 * N  # i1 + i3 + 2N
    nonres = np.empty(dim, dtype=np.complex128)
    for i_n in range(dim):
        term = outer13 * pad2[gather_base - i_n]
        term[i_n, :] = 0.0  # n1 = n excluded
        term[:, i_n] = 0.0  # n3 = n excluded
        nonres[i_n] = term.sum()
    res = -(c1 * np.conj(c2) * c3)
    return WickSplit(make_field(N, nonres), make_field(N, res))


def gauge_transform(traj: Trajectory) -> Trajectory:
    """Mass-dependent phase rotation u(t_m) -> exp(-2 i t_m M(t_m)) u(t_m).

    The modulus of every coefficient is untouched, so all FL norms are
    preserved pointwise in time.
    """
    mass = np.sum(np.abs(traj.states) ** 2, axis=1)
    phase = np.exp(-1j * 2.0 * traj.times * mass)
    return Trajectory(traj.times, traj.states * phase[:, None])


_NONLINEARITIES = {"wick": wick_coeffs_block, "cubic": cubic_coeffs_block}  # solve's nonlinearity by name


def solve(
    u0: SpectralField,
    op: Optional[NoiseOperator],
    cfg: SolverConfig,
    nonlinearity: str = "wick",
    rng: Optional[np.random.Generator] = None,
) -> Trajectory:
    """Repeated exponential-Euler steps of the mild formulation on the uniform grid:

        u_hat(t+dt, n) = exp(i dt n^2) [u_hat(t, n) + i dt N_hat(u)(n)] - i (phi zeta)(n)

    with zeta the step's exact-in-law complex Gaussian increment.  Each step is
    first-order accurate.  With op set, the increments are one
    (steps, 2N+1) block of variance cfg.dt drawn from rng, which is then
    required; the CLI passes the Philox stream (seed, 0).  A non-finite state
    aborts the run; the returned trajectory then ends at the last valid time
    and carries failed_at.
    """
    kernel = _NONLINEARITIES.get(nonlinearity)
    if kernel is None:
        raise ValueError(f"nonlinearity must be one of {tuple(_NONLINEARITIES)}")
    if u0.cutoff != cfg.cutoff:
        raise ValueError("u0 cutoff does not match the config")
    times = cfg.grid()
    M = cfg.steps
    dim = 2 * cfg.cutoff + 1
    z = None
    if op is not None:
        if op.cutoff != cfg.cutoff:
            raise ValueError("operator cutoff does not match the config")
        if rng is None:
            raise ValueError("a noise operator needs an rng")
        z = _draw_increments(rng, (M, dim), cfg.dt)
    prop = propagator_phases(cfg.cutoff, cfg.dt)
    states = np.zeros((M + 1, dim), dtype=np.complex128)
    states[0] = u0.coeffs
    cur = u0.coeffs.copy()
    # an overflowing step is caught by the finiteness check below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(M):
            nl = kernel(cur[None, :])[0]
            cur = prop * (cur + 1j * cfg.dt * nl)
            if z is not None:
                cur = cur - 1j * op.apply_to_vector(z[m])
            if not np.all(np.isfinite(cur.view(np.float64))):
                return Trajectory._adopt(times[: m + 1], states[: m + 1], failed_at=float(times[m]))
            states[m + 1] = cur
    return Trajectory._adopt(times, states)


def evolve_wick_rk4ip(
    U0: np.ndarray,
    phi: np.ndarray,
    Z: np.ndarray,
    dt: float,
    substeps: int,
) -> np.ndarray:
    """Batched interaction-picture RK4 for the Wick flow with end-of-step
    noise kicks, over the rows it is handed.

    U0: (B, 2N+1) initial coefficient rows.  Z: (B, steps, 2N+1) complex
    Gaussian increments of variance dt; these shapes fix N and steps, and
    phi must have shape (2N+1,): any other shape is a ValueError, so no
    array is broadcast across rows.  Each noise step is split into
    `substeps` deterministic RK4 substeps; the kick -i phi zeta is applied
    at the step end, which leaves the per-mode law of the linear part
    exact.  Returns the state after the last step of Z, (B, 2N+1).  Rows
    never interact, so every row gets the same arithmetic as when it is
    evolved alone, and a call on Z[:, a:b] from the state at step a
    continues the same arithmetic, so a run split into segments keeps
    every bit.

    Each RK4 stage is one pass of all B rows over the grid, _wick_stage:
    the Wick mass is the mean of |u|^2 on the grid, where wick_coeffs_block
    sums |u_hat|^2 in coefficient space; the two are equal by Parseval, so
    results agree with wick_coeffs_block's arithmetic to rounding.  The
    grid has _five_smooth(4N+1) points (72 at N = 16), the shortest fast
    alias-free grid, where alias_free_length gives 128.  solve and
    picard_iterate keep wick_coeffs_block on the power-of-two grid: their
    arithmetic is frozen, and a converged Picard fixed point must
    reproduce solve's trajectory.
    """
    if U0.ndim != 2 or Z.ndim != 3 or Z.shape[::2] != U0.shape:
        raise ValueError(f"Z must have shape (B, steps, 2N+1) for U0 of shape (B, 2N+1), got Z {Z.shape} and U0 {U0.shape}")
    if phi.shape != U0.shape[1:]:
        raise ValueError(f"phi must have shape (2N+1,) = {U0.shape[1:]}, got {phi.shape}")
    N = (U0.shape[-1] - 1) // 2
    h = dt / substeps
    L = _five_smooth(4 * N + 1)

    # per substep at offset s, its four stages' (fwd, back) phases at s,
    # s + h/2, s + h/2 and s + h; each back phase carries its stage's RK4
    # weight h/2, h/2, h or h/6, so every k is born scaled by it
    def stages(s: float) -> list[tuple[np.ndarray, np.ndarray]]:
        out = []
        for a, w in ((0.0, 0.5 * h), (0.5 * h, 0.5 * h), (0.5 * h, h), (h, h / 6.0)):
            ph = propagator_phases(N, s + a)
            out.append((ph, (1j * w) * np.conj(ph)))
        return out

    substep_phases = [stages(k * h) for k in range(substeps)]

    # V holds U between steps; acc sums the scaled k's, and k is each stage's
    # result, then the next stage's input V + k, then the kick.  With the
    # weights in the k's, V + (h/6)(k1 + 2 k2 + 2 k3 + k4) is
    # V + (k1' + 2 k2' + k3') / 3 + k4'
    V = np.array(U0, dtype=np.complex128)
    acc, k = np.empty_like(V), np.empty_like(V)
    sq = np.empty((len(V), L))  # |G|^2
    prop = propagator_phases(N, dt)
    iphi = 1j * phi
    for m in range(Z.shape[1]):
        for s1, s2, s3, s4 in substep_phases:
            _wick_stage(V, *s1, L, acc, sq)  # k1' = (h/2) k1
            np.add(V, acc, out=k)
            _wick_stage(k, *s2, L, k, sq)  # k2' = (h/2) k2
            np.add(acc, k, out=acc)
            np.add(acc, k, out=acc)
            np.add(V, k, out=k)
            _wick_stage(k, *s3, L, k, sq)  # k3' = h k3
            np.add(acc, k, out=acc)
            np.add(V, k, out=k)
            _wick_stage(k, *s4, L, k, sq)  # k4' = (h/6) k4
            np.multiply(acc, 1.0 / 3.0, out=acc)
            np.add(V, acc, out=V)
            np.add(V, k, out=V)
        np.multiply(prop, V, out=V)
        np.multiply(iphi, Z[:, m, :], out=k)
        np.subtract(V, k, out=V)
    return V


def _wick_stage(X: np.ndarray, fwd: np.ndarray, back: np.ndarray, L: int, out: np.ndarray, sq: np.ndarray) -> None:
    """back * P_N((|G|^2 - 2 M) G) with G = to_grid(fwd * X, L) and M each
    row's mean of |G|^2, into out, which may be X: an RK4 stage of
    evolve_wick_rk4ip.  On L >= 2N+1 points the mean of |G|^2 is the
    Parseval mass sum |fwd * X|^2 exactly, so this is back times the Wick
    nonlinearity of fwd * X on L points up to rounding.  sq, a float
    scratch of X's rows by L, takes |G|^2."""
    np.multiply(fwd, X, out=out)
    G = to_grid(out, L)
    dens = np.square(G.real, out=sq)
    dens += np.square(G.imag)
    mass = np.einsum("ij->i", dens)[:, None]  # row sums; np.sum is twice as slow on rows this short
    mass *= 2.0 / L
    dens -= mass
    np.multiply(dens, G, out=G)
    _band(np.fft.fft(G, axis=-1, norm="forward", out=G), (out.shape[1] - 1) // 2, out)
    np.multiply(back, out, out=out)


@dataclass
class PicardReport:
    """Iteration diagnostics of the fixed-point map."""

    solution: Optional[Trajectory] = None  # the final iterate
    differences: list = dc_field(default_factory=list)
    ratios: list = dc_field(default_factory=list)
    contraction_factor: Optional[float] = None
    converged: bool = False
    non_contracting: bool = False
    non_finite: bool = False  # stopped at a nan or inf difference
    iterations: int = 0


@np.errstate(all="ignore")  # a diverging iterate is caught as non_finite
def picard_iterate(
    u0: SpectralField,
    psi: Trajectory,
    cfg: SolverConfig,
    params: Optional[XsbParams] = None,
) -> PicardReport:
    """Fixed-point iteration of the mild formulation on psi's grid:

        u^(j+1) = S(t) u0 + i Duhamel(N(u^(j))) - i psi,   u^(0) = S(t) u0 - i psi

    with the left-endpoint discrete Duhamel; noise enters only through psi, the
    sampled convolution.  Successive differences are measured by xsb_norm at
    params (default s = 0, b = 0.3, b' = -0.3, p = q = 2, T = grid end); the
    contraction factor is the geometric mean of the difference ratios.  Three
    consecutive non-contracting ratios abort with a partial report, and so
    does the first non-finite difference; no ratio is taken against it.
    """
    times = psi.times
    dt = _check_uniform(times)
    if abs(dt - cfg.dt) > 1e-9 * cfg.dt or abs(times[-1] - cfg.horizon) > 1e-9:
        raise ValueError("psi must be sampled on the config grid")
    if params is None:
        params = XsbParams(s=0.0, b=0.3, bprime=-0.3, p=2.0, q=2.0, T=float(times[-1]))
    if params.q == 2:
        # the cached operator xsb_norm will read, built while no trajectory
        # is alive, so its FFT scratch does not sit on top of them
        _xsb_circulant(len(times) - 1, dt, params.T, params.b, DEFAULT_PAD)
    N = u0.cutoff
    lin = u0.coeffs[None, :] * propagator_phases(N, times)
    cur = lin - 1j * psi.states
    report = PicardReport()
    bad_streak = 0
    for it in range(cfg.picard_max_iters):
        # lin + 1j * duh - 1j * psi, ufunc by ufunc, with new - cur written
        # into cur, which retires: four trajectory-sized arrays (psi, lin,
        # cur, new) are alive across the norm
        new = 1j * discrete_duhamel(Trajectory._adopt(times, wick_coeffs_block(cur))).states
        np.add(lin, new, out=new)
        new -= 1j * psi.states
        diff = xsb_norm(Trajectory._adopt(times, np.subtract(new, cur, out=cur)), params)
        report.differences.append(diff)
        report.iterations = it + 1
        if len(report.differences) >= 2:
            prev = report.differences[-2]
            ratio = diff / prev if prev > 0 else 0.0
            report.ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
        cur = new
        if not np.isfinite(diff):
            report.non_finite = True
            break
        if diff < cfg.picard_tolerance:
            report.converged = True
            break
        if bad_streak >= 3:
            report.non_contracting = True
            break
    report.solution = Trajectory._adopt(times, cur)
    pos = [r for r in report.ratios if r > 0]
    if pos:
        report.contraction_factor = float(np.exp(np.mean(np.log(pos))))
    return report
