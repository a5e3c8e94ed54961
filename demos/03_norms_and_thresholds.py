"""Weighted norms and the operator regularity threshold.

Three families: the weighted-coefficient norm ||<n>^s u_hat||_{l^p}, the
gamma norm of a noise operator (weighted row-l2 in l^p, reducing to
Hilbert-Schmidt at p = 2), and a windowed space-time norm whose value on a
free flow factorizes into temporal-factor x datum-norm.

The gamma norm of bessel(alpha) saturates under cutoff growth exactly when
s < alpha - 1/p, and keeps growing otherwise; that boundary decides which
noises the fixed-point argument tolerates.
"""

import numpy as np

from wickns.fields import mode_field
from wickns.noise import bessel_operator
from wickns.norms import (
    XsbParams,
    fl_norm,
    gamma_norm,
    homogeneous_estimate_check,
    temporal_window_factor,
)

if __name__ == "__main__":
    # weighted datum norm: single mode n = 3 with weight <3>^s
    u = mode_field(8, 3, 0.5)
    for s in (0.0, 0.5, 1.0):
        print(f"fl_norm(0.5 e_3, s={s}, p=2) = {fl_norm(u, s, 2.0):.6f}")

    # gamma norm vs cutoff on both sides of s = alpha - 1/p
    alpha, p = 0.75, 4.0
    boundary = alpha - 1.0 / p
    print(f"\nbessel({alpha}), p={p}: boundary s = {boundary}")
    for s in (0.4, 0.6):
        values = [gamma_norm(bessel_operator(2**k, alpha), s, p) for k in (10, 12, 14)]
        trend = "saturates" if values[2] / values[1] < 1.02 else "keeps growing"
        print(f"  s = {s:+.2f}: cutoffs 2^10, 2^12, 2^14 -> "
              + ", ".join(f"{v:.4f}" for v in values) + f"  ({trend})")

    # windowed space-time norm of a free flow factorizes exactly
    params = XsbParams(0.4, 0.35, -0.2, 3.0, 2.5, 0.5)
    factor = temporal_window_factor(params, steps=64)
    rng = np.random.default_rng(5)
    coeffs = (rng.standard_normal(17) + 1j * rng.standard_normal(17)) / np.sqrt(2)
    from wickns.fields import make_field

    ratio = homogeneous_estimate_check(make_field(8, coeffs), params, steps=64)
    print(f"free-flow ratio {ratio:.12f} vs temporal factor {factor:.12f} "
          f"(rel diff {abs(ratio / factor - 1):.2e})")
