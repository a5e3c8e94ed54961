import tracemalloc

import numpy as np
import pytest

from wickns import make_field, philox_stream


@pytest.fixture
def rng():
    return philox_stream(20240817)


def random_field(N, rng, scale=1.0):
    dim = 2 * N + 1
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return make_field(N, scale * z / np.sqrt(2.0))


def brute_convolve(f, g):
    """O(N^2) reference: h(n) = sum_k f(k) g(n-k), truncated to the band."""
    N = f.cutoff
    out = np.zeros(2 * N + 1, dtype=np.complex128)
    for n in range(-N, N + 1):
        acc = 0.0 + 0.0j
        for k in range(-N, N + 1):
            if -N <= n - k <= N:
                acc += f.coeffs[k + N] * g.coeffs[n - k + N]
        out[n + N] = acc
    return make_field(N, out)


def fields_close(f, g, tol=1e-12):
    """Same cutoff and every coefficient within tol of the other's."""
    return f.cutoff == g.cutoff and bool(np.max(np.abs(f.coeffs - g.coeffs)) <= tol)


def traced_peak(fn):
    """(fn(), the peak traced memory in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
