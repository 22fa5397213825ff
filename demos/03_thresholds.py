# The sharp exponent thresholds: the perturbation profile and its
# minimum, the two implicit equations behind the closed-form margins,
# the piecewise alpha-threshold curve, and the smallest proven mean order
# for the variance-corrected half-mean bound.

import numpy as np

from meanineq import (
    a_r_fn,
    alpha_threshold_lower,
    alpha_threshold_upper,
    min_a_r,
    solve_r0,
    solve_t1,
    solve_t2,
)

print("perturbation profile at r = 1.5 (limit values at the endpoints):")
for t in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
    print(f"  a(t={t:.1f}) = {a_r_fn(1.5, t):.6f}")

for r in (1.2, 1.5, 1.9, 2.0, 2.5, 4.0):
    t_star, a_star = min_a_r(r)
    print(f"min over t at r={r}: a* = {a_star:.6f} (attained at t = {t_star:g})")

print("\nimplicit-equation solves (bisection on guaranteed brackets):")
t1 = solve_t1(1.5)
print(f"  t1(1.5) = {t1.value:.12f}  residual {t1.residual:+.2e}  "
      f"iterations {t1.iterations}")
t2 = solve_t2(2.5)
print(f"  t2(2.5) = {t2.value:.12f}  residual {t2.residual:+.2e}  "
      f"iterations {t2.iterations}")

print("\nalpha-threshold curve (upper branch below 2, lower branch above):")
for r in (1.2, 1.5, 1.8):
    print(f"  r={r}: alpha may rise to {alpha_threshold_upper(r):.6f}")
for r in (2.5, 3.0, 3.5, 4.0, 6.0):
    print(f"  r={r}: alpha may drop to {alpha_threshold_lower(r):.6f}")

res = solve_r0()
print(f"\nsmallest proven order r0 = {res.value:.12f}")
print(f"  bracket [{res.bracket[0]:.12f}, {res.bracket[1]:.12f}], "
      f"defining residual {res.residual:+.2e}")

# The curve is continuous inside each piece; the kinks sit at r = 3 and 4.
rs = np.linspace(2.05, 5.0, 9)
print("\nr ->", "  ".join(f"{alpha_threshold_lower(float(r)):.4f}" for r in rs))
