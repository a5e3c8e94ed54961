"""Stochastic convolution paths: exact-in-law sampling and the variance law.

The noise term psi(t) = int_0^t S(t - t') phi dW(t') is Gaussian with
per-mode variance |phi_n|^2 t.  The sampler uses the one-step recursion
psi(t+dt) = e^{i dt n^2} psi(t) + phi zeta, zeta ~ CN(0, dt), which is exact
in law on any grid, so refining the grid does not change the statistics.
"""

import numpy as np

from wickns.noise import (
    bessel_operator,
    convolution_paths_block,
    make_grid,
    philox_stream,
    sample_convolution_path,
    trajectory_to_csv,
)

if __name__ == "__main__":
    N = 16
    alpha = 0.75
    T = 1.0
    op = bessel_operator(N, alpha)  # phi_n = (1 + n^2)^(-alpha/2)

    # one path on a coarse grid
    traj = sample_convolution_path(op, make_grid(T, 8), philox_stream(11))
    print(f"one path: {len(traj.times)} time points, final mass {np.sum(np.abs(traj.states[-1])**2):.4f}")
    # the table `wickns sample-noise` writes as psi.csv: one row per time and mode
    rows = "".join(trajectory_to_csv(traj)).splitlines()
    print(f"as CSV: {len(rows) - 1} rows under the header {rows[0]!r}")

    # ensemble: empirical per-mode variance vs the exact law |phi_n|^2 t
    paths = 20_000
    states = convolution_paths_block(op, make_grid(T, 4), philox_stream(11), paths)
    for m, t in ((2, 0.5), (4, 1.0)):
        emp = np.mean(np.abs(states[:, m, :]) ** 2, axis=0)
        law = t * op.row_l2() ** 2
        worst = np.max(np.abs(emp / law - 1.0))
        print(f"t = {t}: worst relative variance error over modes = {worst:.4f} ({paths} paths)")

    # rougher phi (smaller alpha) carries more mass into high modes
    for a in (0.0, 0.5, 1.0):
        total = np.sum(bessel_operator(N, a).row_l2() ** 2)
        print(f"alpha = {a}: sum |phi_n|^2 = {total:.4f}")

    # the same seed always reproduces the same path, bit for bit
    a = sample_convolution_path(op, make_grid(T, 8), philox_stream(11))
    print("seeded rerun identical:", bool(np.array_equal(a.states, traj.states)))
