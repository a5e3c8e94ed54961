"""Spectral fields on the torus: truncation, propagation, grid products.

A field is a frozen vector of Fourier coefficients u_hat(n), |n| <= N.
This walks the basic moves: build, propagate, sample on a grid and multiply
there, and read a field from a CSV table.
"""

import numpy as np

from wickns.fields import (
    alias_free_length,
    field_from_csv,
    frequencies,
    from_grid,
    make_field,
    mode_field,
    propagator_phases,
    to_grid,
)

if __name__ == "__main__":
    N = 8
    rng = np.random.default_rng(7)
    dim = 2 * N + 1
    u = make_field(N, (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2))

    print(f"cutoff N = {u.cutoff}, modes n = {frequencies(N)[0]} .. {frequencies(N)[-1]}")
    print(f"mass (Parseval sum of |u_hat|^2) = {u.mass():.6f}")

    # free Schrodinger flow: each mode rotates by exp(i t n^2), mass is exact
    t = 0.37
    v = make_field(N, u.coeffs * propagator_phases(N, t))
    print(f"mass after linear flow of t={t}: {v.mass():.6f} (drift {abs(v.mass() - u.mass()):.2e})")
    back = v.coeffs * np.conj(propagator_phases(N, t))  # S(-t) is the conjugate
    print(f"round-trip max error: {np.max(np.abs(back - u.coeffs)):.2e}")

    # physical samples on a uniform grid invert the transform
    samples = to_grid(u.coeffs, 64)
    print(f"grid samples: mean |u(x)|^2 = {np.mean(np.abs(samples) ** 2):.6f} (equals the mass)")
    print(f"grid round trip max error: {np.max(np.abs(from_grid(samples, N) - u.coeffs)):.2e}")

    # a product on an alias-free grid is the truncated convolution of the coefficients
    e1 = mode_field(2, 1, 1.0)
    L = alias_free_length(2)
    square = from_grid(to_grid(e1.coeffs, L) ** 2, 2)
    print(f"e1 * e1 = e2 at cutoff 2, max error {np.max(np.abs(square - mode_field(2, 2).coeffs)):.2e}")

    # a datum table, as `[solver] u0 = csv:FILE` reads it
    datum = field_from_csv("n,re,im\n-1,0.0,0.5\n0,1.0,0.0\n1,0.25,-0.25\n")
    print(f"csv datum: cutoff {datum.cutoff}, mass {datum.mass():.4f}")
