"""Cylindrical Wiener process, the smoothing operator phi, and the
stochastic convolution, exact in distribution per Fourier mode.

The driving noise has independent complex Brownian modes with
E|beta_n(t)|^2 = t (real and imaginary parts independent, variance t/2
each), which makes the Ito isometry hold with constant exactly 1.  Because
the free propagator is a unit-modulus multiplier, the grid recursion

    psi_hat(t_{m+1}, n) = exp(i dt n^2) psi_hat(t_m, n) + phi_n zeta_{m,n}

with zeta complex Gaussian of variance dt reproduces the law of the
stochastic convolution at the grid points with no time-discretization bias.

Reproducibility: every sampler takes an explicit numpy Generator; the
callers pass counter-based Philox streams keyed by explicit seeds
(`philox_stream`), so parallel ensembles are independent of worker count and
scheduling order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .fields import SpectralField, _csv_chunks, _csv_rows, _csv_text, _fmt, frequencies, propagator_phases

__all__ = [
    "NoiseOperator",
    "Trajectory",
    "bessel_operator",
    "identity_operator",
    "make_grid",
    "philox_stream",
    "sample_white_noise_field",
    "sample_convolution_path",
    "convolution_from_path",
    "convolution_paths_block",
    "trajectory_to_csv",
    "operator_to_csv",
    "operator_from_csv",
]

_CSV_BLOCK_ROWS = 1 << 12  # rows of a trajectory or matrix table formatted together
_DRAW_BUF = 1 << 15  # float values per generator call of a Gaussian draw


@dataclass(frozen=True)
class NoiseOperator:
    """The operator phi on the truncated basis.

    Either a real Fourier multiplier (phi_n)_{|n| <= N} or a dense complex
    matrix whose entry (n, k) is the coefficient of phi(e_k) on e_n.  Only
    desk-scale matrices are supported; the reference case is the diagonal
    Bessel multiplier.
    """

    cutoff: int
    multiplier: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        dim = 2 * self.cutoff + 1
        if (self.multiplier is None) == (self.matrix is None):
            raise ValueError("exactly one of multiplier/matrix must be given")
        if self.multiplier is not None:
            arr = np.asarray(self.multiplier, dtype=np.float64)
            if arr.shape != (dim,):
                raise ValueError(f"multiplier must have shape ({dim},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError("multiplier entries must be finite")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, "multiplier", arr)
        else:
            mat = np.asarray(self.matrix, dtype=np.complex128)
            if mat.shape != (dim, dim):
                raise ValueError(f"matrix must have shape ({dim}, {dim})")
            if not np.all(np.isfinite(mat.view(np.float64))):
                raise ValueError("matrix entries must be finite")
            if self.cutoff > 128:
                raise ValueError("matrix operators supported only at N <= 128")
            mat = mat.copy()
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)

    @property
    def is_multiplier(self) -> bool:
        return self.multiplier is not None

    def row_l2(self) -> np.ndarray:
        """Per-output-mode l2 norm over driving indices: (sum_k |phi(e_k)(n)|^2)^(1/2)."""
        if self.is_multiplier:
            return np.abs(self.multiplier)
        return np.sqrt(np.sum(np.abs(self.matrix) ** 2, axis=1))

    def apply_to_vector(self, z: np.ndarray) -> np.ndarray:
        """phi applied along the last axis of z (driving indices), so a block
        of vectors (..., 2N+1) maps row by row."""
        if self.is_multiplier:
            return self.multiplier * z
        return z @ self.matrix.T


def bessel_operator(cutoff: int, alpha: float) -> NoiseOperator:
    """Smoothing multiplier phi_n = (1 + n^2)^(-alpha/2); alpha may be <= 0.
    An alpha so negative that phi_N overflows is a ValueError."""
    ns = frequencies(cutoff).astype(np.float64)
    with np.errstate(over="ignore"):
        phi = (1.0 + ns**2) ** (-alpha / 2.0)
    return NoiseOperator(cutoff, multiplier=phi)


def identity_operator(cutoff: int) -> NoiseOperator:
    """phi = Id, the space-time white noise case (alpha = 0)."""
    return bessel_operator(cutoff, 0.0)


@dataclass(frozen=True)
class Trajectory:
    """Time-gridded sequence of spectral states sharing one cutoff.

    failed_at carries the last valid time when a solver aborted on a
    non-finite state; None means the trajectory is clean.  The arrays are
    read-only copies of the caller's; `_adopt` keeps a fresh states array
    without the copy.
    """

    times: np.ndarray = dc_field(repr=False)
    states: np.ndarray = dc_field(repr=False)  # shape (len(times), 2N+1)
    failed_at: Optional[float] = None

    def __post_init__(self):
        self._own(self.times, np.array(self.states, dtype=np.complex128))

    @classmethod
    def _adopt(cls, times, states: np.ndarray, failed_at: Optional[float] = None) -> "Trajectory":
        """A trajectory over a complex states array that nobody else holds:
        the array is set read-only and kept, not copied.  For internal
        callers that hand over an array they just built."""
        traj = object.__new__(cls)
        object.__setattr__(traj, "failed_at", failed_at)
        traj._own(times, states)
        return traj

    def _own(self, times, s: np.ndarray) -> None:
        # times is small and may be the caller's, so it is always copied
        t = np.array(times, dtype=np.float64)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.shape[0]:
            raise ValueError("states must have one row per grid time")
        if s.shape[1] % 2 != 1:
            raise ValueError("states must have 2N+1 columns")
        if t.shape[0] > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("time grid must be strictly increasing")
        t.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def cutoff(self) -> int:
        return (self.states.shape[1] - 1) // 2


def make_grid(horizon: float, steps: int) -> np.ndarray:
    """Uniform grid 0 = t_0 < ... < t_M = horizon with M = steps."""
    if horizon <= 0 or steps < 1:
        raise ValueError("horizon must be positive and steps >= 1")
    return np.linspace(0.0, horizon, steps + 1)


def _check_uniform(times: np.ndarray) -> float:
    """Returns dt; raises on a non-uniform grid."""
    if len(times) < 2:
        return 0.0
    diffs = np.diff(times)
    dt = float(diffs[0])
    if dt <= 0 or np.max(np.abs(diffs - dt)) > 1e-9 * dt:
        raise ValueError("time grid must be uniform")
    return dt


def philox_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, *key); disjoint for distinct keys."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), *map(int, key)])))


def sample_white_noise_field(cutoff: int, variance: float, rng: np.random.Generator) -> SpectralField:
    """u_hat(n) = sigma * g_n with g_n iid standard complex Gaussian.

    E|g_n|^2 = 1: real and imaginary parts each have variance 1/2.
    """
    if variance < 0:
        raise ValueError("variance must be non-negative")
    g = _unit_complex_normal(rng, 2 * cutoff + 1)
    return SpectralField(cutoff, np.sqrt(variance) * g)


def _fill_normal(rng: np.random.Generator, dest, buf: np.ndarray) -> None:
    """Writes standard normals into the float array dest in C order, drawn
    at most buf.size at a time into the float buffer buf.  dest may be a
    strided view, such as the real or the imaginary parts of a complex
    block; an int dest is a count of values drawn and discarded.

    The generator reads one value per normal in order, so however dest is
    shaped, and however a draw is split into consecutive calls, the values
    and the stream position are those of one whole standard_normal draw."""
    if isinstance(dest, int):
        for lo in range(0, dest, buf.size):
            rng.standard_normal(out=buf[: min(buf.size, dest - lo)])
        return
    inner = math.prod(dest.shape[1:])
    if dest.size == 0:
        return
    if inner > buf.size:  # a row does not fit: one leading index at a time
        for row in dest:
            _fill_normal(rng, row, buf)
        return
    step = buf.size // inner
    for lo in range(0, len(dest), step):
        part = buf[: min(step, len(dest) - lo) * inner]
        rng.standard_normal(out=part)
        dest[lo : lo + step] = part.reshape(-1, *dest.shape[1:])


def _draw_buffer(size: int) -> np.ndarray:
    """The float buffer of _fill_normal for draws of up to `size` values."""
    return np.empty(min(_DRAW_BUF, max(size, 1)))


def _complex_normal(rng: np.random.Generator, shape, out: Optional[np.ndarray] = None) -> np.ndarray:
    """re + i im with re, im independent standard normal blocks of `shape`,
    drawn real block first; E|z|^2 = 2, so callers scale it themselves.
    Fills the complex array `out` of that shape in place when it is given."""
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    buf = _draw_buffer(out.size)
    _fill_normal(rng, out.real, buf)
    _fill_normal(rng, out.imag, buf)
    return out


def _unit_complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """_complex_normal scaled to E|z|^2 = 1: the one variance-1 complex
    Gaussian draw, of white data, wick-check fields and lab ensembles."""
    return _complex_normal(rng, shape) / np.sqrt(2.0)


def _draw_increments(rng: np.random.Generator, shape, dt: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    # One block draw per path or ensemble: the stream layout is independent
    # of how steps or modes are later traversed.  _increment_blocks draws the
    # same bits one row block at a time, in O(rows) memory, and
    # _increment_blocks_kept_real does so holding every real part at once.
    z = _complex_normal(rng, shape, out)
    z *= np.sqrt(dt / 2.0)
    return z


def _increment_blocks(rng: np.random.Generator, shape, dt: float, rows: int):
    """Yields (slice, z) with z == _draw_increments(rng, shape, dt)[slice]
    bit for bit, `rows` leading rows at a time, and leaves rng where that
    whole draw leaves it once the blocks are exhausted.

    The whole draw takes every real part, then every imaginary part, from
    one stream.  So rng reads the first block's real parts, a copy of its
    bit generator reads the other blocks' real parts, and rng, moved past
    them, reads the imaginary parts.  Ziggurat rejection makes the number
    of words unknowable, so the move is a discarded draw; a single block
    needs none.  One complex buffer of `rows` rows is reused, each z
    overwritten by the next block, and every draw goes through one float
    buffer of at most _DRAW_BUF values."""
    B, total = shape[0], math.prod(shape)
    z = np.empty((min(rows, B), *shape[1:]), dtype=np.complex128)
    buf = _draw_buffer(total)
    _fill_normal(rng, z.real, buf)
    real = np.random.Generator(copy.deepcopy(rng.bit_generator))
    _fill_normal(rng, total - z.size, buf)
    scale = np.sqrt(dt / 2.0)
    for lo in range(0, B, rows):
        n = min(rows, B - lo)
        zb = z[:n]
        if lo:
            _fill_normal(real, zb.real, buf)
        _fill_normal(rng, zb.imag, buf)
        zb *= scale
        yield slice(lo, lo + n), zb


def _increment_blocks_kept_real(rng: np.random.Generator, shape, dt: float, rows: int, out: np.ndarray):
    """Yields what _increment_blocks yields, into the caller's complex
    buffer `out` of shape (min(rows, B), *shape[1:]), by holding the whole
    draw's real parts in place of re-drawing them.

    rng draws every real part into one float array; each block then copies
    its rows out and draws its imaginary parts after them, through the
    float buffer of _fill_normal.  No value is drawn twice, and the real
    parts take half the bytes of the whole complex draw.  This suits a
    consumer that spends about as long on a path as the draw does (tail-mc's
    norms): there the discarded draw of _increment_blocks, which draws all
    but the first block's real parts twice, costs a fifth of the run.
    variance-test keeps that draw and its one-block peak."""
    B, parts = shape[0], np.empty(shape)
    buf = _draw_buffer(parts.size)
    _fill_normal(rng, parts, buf)
    scale = np.sqrt(dt / 2.0)
    for lo in range(0, B, rows):
        n = min(rows, B - lo)
        zb = out[:n]
        zb.real = parts[lo : lo + n]
        _fill_normal(rng, zb.imag, buf)
        zb *= scale
        yield slice(lo, lo + n), zb


def _free_recursion(op: NoiseOperator, out: np.ndarray, dt: float) -> None:
    """psi(t_0) = 0, psi(t_{m+1}) = exp(i dt n^2) psi(t_m) + phi z_m, in place
    over a block of shape (..., steps+1, 2N+1) whose slot 0 is zero and whose
    slot m+1 holds the increment z_m; slot m then holds psi(t_m)."""
    prop = propagator_phases(op.cutoff, dt)
    for m in range(out.shape[-2] - 1):
        out[..., m + 1, :] = prop * out[..., m, :] + op.apply_to_vector(out[..., m + 1, :])


def convolution_from_path(op: NoiseOperator, times, increments) -> Trajectory:
    """Deterministic map from an increment block, shape (len(times)-1, 2N+1)
    with N the operator's cutoff, to the convolution trajectory on times."""
    times = np.asarray(times, dtype=np.float64)
    z = np.asarray(increments, dtype=np.complex128)
    if times.ndim != 1 or z.shape != (len(times) - 1, 2 * op.cutoff + 1):
        raise ValueError("increments must have shape (len(times)-1, 2N+1) for the operator cutoff N")
    dt = _check_uniform(times)
    out = np.zeros((len(times), z.shape[1]), dtype=np.complex128)
    out[1:] = z  # a copy: the caller's increments are never written
    _free_recursion(op, out, dt)
    return Trajectory._adopt(times, out)


def sample_convolution_path(op: NoiseOperator, grid, rng: np.random.Generator) -> Trajectory:
    """Stochastic convolution sample: psi_hat(0) = 0 and

        psi_hat(t_{m+1}, n) = exp(i dt n^2) psi_hat(t_m, n) + (phi zeta_m)(n).

    Exact in distribution at the grid points; the marginal at t_m is complex
    Gaussian with per-mode variance |phi_n|^2 t_m in the multiplier case.
    """
    times = np.asarray(grid, dtype=np.float64)
    dt = _check_uniform(times)
    z = _draw_increments(rng, (len(times) - 1, 2 * op.cutoff + 1), dt)
    return convolution_from_path(op, times, z)


def convolution_paths_block(op: NoiseOperator, grid, rng: np.random.Generator, n_paths: int) -> np.ndarray:
    """Vectorized ensemble of convolution samples.

    Returns states of shape (n_paths, len(grid), 2N+1).  Same per-mode law as
    sample_convolution_path; increments are drawn as one (paths, steps, modes)
    block so the result depends only on the generator state, not on batching.
    The increments are drawn into slots 1..steps of the returned block and
    recursed in place, so the block is the only array of its size.
    """
    times = np.asarray(grid, dtype=np.float64)
    dt = _check_uniform(times)
    out = np.empty((n_paths, len(times), 2 * op.cutoff + 1), dtype=np.complex128)
    out[:, 0] = 0.0
    z = out[:, 1:]
    _draw_increments(rng, z.shape, dt, out=z)
    _free_recursion(op, out, dt)
    return out


def _grid_blocks(outer, inner, values: np.ndarray):
    """The rows outer[i], inner[j], re, im of values[i, j], row-major, as
    one text per block of whole outer labels, about _CSV_BLOCK_ROWS rows
    each: the `blocks` of _csv_text and _csv_chunks.

    Each outer and inner label is formatted once: the inner labels are
    written into one %-template of an outer label's rows, so a block is
    that template repeated and filled once, with the bytes of _csv_text
    (%r of a float is its repr)."""
    inner_s = list(map(_fmt, inner))
    step = max(1, _CSV_BLOCK_ROWS // len(inner_s))
    row = "".join(f"%s,{n},%r,%r\n" for n in inner_s)
    for lo in range(0, len(outer), step):
        outer_s = list(map(_fmt, outer[lo : lo + step]))
        block = values[lo : lo + step]
        args = [None] * (3 * block.size)
        args[0::3] = [s for s in outer_s for _ in inner_s]
        args[1::3] = block.real.ravel().tolist()
        args[2::3] = block.imag.ravel().tolist()
        yield (row * len(outer_s)) % tuple(args)


def trajectory_to_csv(traj: Trajectory):
    """CSV serialization: header `t,n,re,im`, grid-major then frequency, as
    the pieces _csv_chunks yields, one per row block; "".join of them is the
    table, and a file writer need not join it."""
    return _csv_chunks("t,n,re,im", blocks=_grid_blocks(traj.times, frequencies(traj.cutoff), traj.states))


def operator_to_csv(op: NoiseOperator) -> str:
    """Multiplier: `n,phi_n` rows.  Matrix: `n,k,re,im` rows."""
    ns = frequencies(op.cutoff)
    if op.is_multiplier:
        return _csv_text("n,phi_n", [ns.tolist(), op.multiplier.tolist()])
    return _csv_text("n,k,re,im", blocks=_grid_blocks(ns, ns, op.matrix))


def operator_from_csv(text: str) -> NoiseOperator:
    """Inverse of operator_to_csv for matrix operators: `n,k,re,im` rows.

    Entries not listed are zero, so a diagonal operator may list only its
    diagonal; the row and the column frequencies must each cover -N..N, and
    no (n, k) entry may be listed twice.  A matrix that is diagonal with real
    entries reads back as the multiplier of its diagonal.
    """
    entries = _csv_rows(text, "n,k,re,im", (int, int, float, float))
    if not entries:
        raise ValueError("no matrix entries")
    ns = sorted({e[0] for e in entries})
    N = (len(ns) - 1) // 2
    full = frequencies(N).tolist()
    if ns != full or sorted({e[1] for e in entries}) != full:
        raise ValueError("row and column frequencies must each cover -N..N")
    mat = np.zeros((2 * N + 1, 2 * N + 1), dtype=np.complex128)
    seen = set()
    for n, k, re, im in entries:
        if (n, k) in seen:
            raise ValueError(f"entry n = {n}, k = {k} is listed twice")
        seen.add((n, k))
        mat[n + N, k + N] = complex(re, im)
    d = np.diagonal(mat)
    if not np.any(d.imag) and np.count_nonzero(mat) == np.count_nonzero(d):
        return NoiseOperator(N, multiplier=d.real)
    return NoiseOperator(N, matrix=mat)
