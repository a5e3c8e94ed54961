"""Truncated Fourier representation of periodic complex fields.

A field u on the torus is stored by its coefficients u_hat(n) for integer
frequencies n in [-N, N].  The Laplacian eigenvalue on the mode e_n is -n^2,
so the free Schroedinger propagator acts as the diagonal multiplier
exp(i*t*n^2), which has unit modulus for every t and n.  Fields are stored
and stepped in coefficient space; the grid kernels visit physical space,
through `to_grid` and `from_grid`, only to form pointwise products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralField",
    "zero_field",
    "mode_field",
    "frequencies",
    "propagator_phases",
    "alias_free_length",
    "to_grid",
    "from_grid",
    "field_from_csv",
]


def frequencies(cutoff: int) -> np.ndarray:
    """Integer frequency range -N..N for a given cutoff."""
    return np.arange(-cutoff, cutoff + 1)


@dataclass(frozen=True)
class SpectralField:
    """Coefficient vector of a truncated periodic field.

    coeffs[i] is the amplitude of frequency i - cutoff; the array has exactly
    2*cutoff + 1 entries and is frozen after construction.
    """

    cutoff: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be a non-negative integer")
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] != 2 * self.cutoff + 1:
            raise ValueError(
                f"expected {2 * self.cutoff + 1} coefficients, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def mass(self) -> float:
        """Parseval mass: sum |u_hat(n)|^2."""
        return float(np.sum(np.abs(self.coeffs) ** 2))


def zero_field(cutoff: int) -> SpectralField:
    return SpectralField(cutoff, np.zeros(2 * cutoff + 1, dtype=np.complex128))


def mode_field(cutoff: int, n: int, amplitude: complex = 1.0) -> SpectralField:
    """The single mode amplitude * e_n."""
    if abs(n) > cutoff:
        raise ValueError(f"frequency {n} outside cutoff {cutoff}")
    c = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    c[n + cutoff] = amplitude
    return SpectralField(cutoff, c)


def propagator_phases(cutoff: int, t) -> np.ndarray:
    """Diagonal multiplier exp(i*t*n^2) on the truncated basis.

    t may be an array of times; the result then has one row of phases per
    time, shape t.shape + (2N+1,).  S(-t) is the complex conjugate.
    """
    n2 = frequencies(cutoff).astype(np.float64) ** 2
    z = 1j * np.multiply.outer(t, n2)
    return np.exp(z, out=z)


def alias_free_length(N: int) -> int:
    """Smallest power of two L >= 4N+1, the grid on which a cubic product
    (band [-3N, 3N]) does not alias back into [-N, N]."""
    L = 1
    while L < 4 * N + 1:
        L *= 2
    return L


def _five_smooth(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n: the FFT lengths numpy transforms fastest.
    _five_smooth(4N+1) is the shortest fast alias-free grid for a cubic."""
    best = 2 * n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def to_grid(coeffs: np.ndarray, gridpoints: int) -> np.ndarray:
    """Samples of sum_n c(n) e^{2 pi i n x_j} on the uniform grid, along the
    last axis of a block of coefficient rows (..., 2N+1) -> (..., gridpoints).

    gridpoints must be at least 2N+1, or a ValueError says so; a product of
    such samples is alias-free on [-N, N] when gridpoints leaves room for
    its band (4N+1 for a cubic).  The unscaled inverse transform runs in
    place on its own spectrum buffer; it equals ifft(spec) * gridpoints bit
    for bit only when gridpoints is a power of two, and to rounding at
    other lengths."""
    N = (coeffs.shape[-1] - 1) // 2
    if gridpoints < 2 * N + 1:
        raise ValueError(f"need at least {2 * N + 1} gridpoints to avoid aliasing, got {gridpoints}")
    spec = np.zeros(coeffs.shape[:-1] + (gridpoints,), dtype=np.complex128)
    spec[..., : N + 1] = coeffs[..., N:]  # frequencies 0..N
    if N > 0:
        spec[..., gridpoints - N :] = coeffs[..., :N]  # frequencies -N..-1
    return np.fft.ifft(spec, axis=-1, norm="forward", out=spec)


def from_grid(samples: np.ndarray, cutoff: int, out=None) -> np.ndarray:
    """Inverse of to_grid, truncated to frequencies -N..N along the last axis,
    written into out (shape (..., 2N+1)) or a new array.

    Runs at any length L >= 2N+1 of the last axis (a shorter one is a
    ValueError).  The forward-normalized transform runs in place, so
    samples, which must be complex128, holds its spectrum afterwards; it
    equals fft(samples) / L bit for bit only when L is a power of two, and
    to rounding at other lengths."""
    L = samples.shape[-1]
    if L < 2 * cutoff + 1:
        raise ValueError(f"need at least {2 * cutoff + 1} gridpoints to avoid aliasing, got {L}")
    np.fft.fft(samples, axis=-1, norm="forward", out=samples)
    if out is None:
        out = np.empty(samples.shape[:-1] + (2 * cutoff + 1,), dtype=np.complex128)
    out[..., cutoff:] = samples[..., : cutoff + 1]
    if cutoff > 0:
        out[..., :cutoff] = samples[..., L - cutoff :]
    return out


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _csv_chunks(header: str, columns=(), *, blocks=()):
    """The one CSV writer, as a stream of texts, over equal-length columns:
    a float by its shortest round-trip repr (so tables re-read bit for bit),
    a numpy integer as an int, anything else by str.  The first text holds
    the header and the columns' rows.

    A long table comes as `blocks` instead, each the finished text of a
    run of rows, every row ending in a newline, and each yielded as one
    more text, so only one block is formatted at a time, and a file writer
    need not hold the whole table."""
    cells = [map(_fmt, c) for c in columns]
    yield "\n".join([header, *map(",".join, zip(*cells)), ""])
    yield from blocks


def _csv_text(header: str, columns=(), *, blocks=()) -> str:
    """The texts of _csv_chunks, joined once."""
    return "".join(_csv_chunks(header, columns, blocks=blocks))


def _csv_rows(text: str, header: str, kinds) -> list[tuple]:
    """The one CSV reader: checks the header, then converts each row's
    fields by `kinds`; errors name the line as counted in text."""
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"expected header {header!r}")
    first = text[: len(text) - len(text.lstrip())].count("\n") + 2
    rows = []
    for i, ln in enumerate(lines[1:], start=first):
        parts = ln.split(",")
        if len(parts) != len(kinds):
            raise ValueError(f"line {i}: expected {len(kinds)} fields {header}, got {len(parts)}")
        try:
            rows.append(tuple(kind(v) for kind, v in zip(kinds, parts)))
        except ValueError:
            raise ValueError(f"line {i}: cannot parse {ln.strip()!r}") from None
    return rows


def field_from_csv(text: str) -> SpectralField:
    rows = _csv_rows(text, "n,re,im", (int, float, float))
    N = (len(rows) - 1) // 2
    if len(rows) != 2 * N + 1 or [r[0] for r in rows] != frequencies(N).tolist():
        raise ValueError("rows must cover contiguous frequencies -N..N")
    return SpectralField(N, [complex(re, im) for _, re, im in rows])
