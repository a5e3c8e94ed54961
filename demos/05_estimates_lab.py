"""Numerical companions to the estimates: sums, divisors, multipliers.

Desk-scale experiments for the quantities the well-posedness argument
leans on: divisor growth, two-weight convolution sums, the
modulation-multiplier supremum, and the criticality bookkeeping across
dimensions.
"""

import numpy as np

from wickns.lab import (
    convolution_sum_check,
    criticality_report,
    divisor_bound_scan,
    lemma_exponent,
    multiplier_supremum_report,
)
from wickns.norms import XsbParams

if __name__ == "__main__":
    # divisor counts grow slower than any power: d(n) / n^0.5 peaks early
    ratio, argmax = divisor_bound_scan(10**5, 0.5)
    print(f"max d(n)/n^0.5 for n <= 1e5: {ratio:.6f} at n = {argmax}")

    # two-weight convolution sums decay in <k1 - k2> per the three-case rule
    print("\nsum_n <n-k1>^-beta <n-k2>^-gamma vs predicted exponent:")
    for beta, gamma in ((2.0, 0.6), (1.0, 0.6), (0.7, 0.7)):
        k1s = [2**j for j in range(6, 12)]
        lhs = [convolution_sum_check(beta, gamma, k, 0, 2**16)[0] for k in k1s]
        slope = np.polyfit(np.log(k1s), np.log(lhs), 1)[0]
        print(f"  beta={beta}, gamma={gamma}: fitted {slope:+.3f}, rule {-lemma_exponent(beta, gamma):+.3f}")

    # modulation-multiplier supremum: healthy exponents plateau under cutoff growth
    good = XsbParams(0.0, 0.49, -0.005, 2.0, 2.0, 0.5)
    print("\nmultiplier supremum, kernel exponent "
          f"{multiplier_supremum_report(good, 8).kernel_exponent:.3f}:")
    for N in (16, 32, 64):
        rep = multiplier_supremum_report(good, N)
        print(f"  cutoff {N:3d}: sup = {rep.value:.6f} at n = {rep.arg_n}")

    # criticality table: the dispersive equation meets white noise exactly at d = 1
    print("\ncriticality classifications (p = 2):")
    for d in (1, 2, 3, 4):
        cls = criticality_report(d, 2.0).classifications
        print(f"  d = {d}: dispersive/Sobolev {cls['snls_sobolev']:>13s}, "
              f"dispersive/FL {cls['snls_fourier_lebesgue']:>13s}, heat {cls['sqe']:>13s}")
