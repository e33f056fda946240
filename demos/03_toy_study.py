"""A one-predictor cautionary tale for subsampling under misspecification.

The data follow y = x + sin(x^2)/2 + noise, but the analyst fits a straight
line through the origin. Most x values sit in a dense core; a sparse tail
carries most of the information about the slope. Uniform subsamples usually
miss the tail; leverage subsampling finds it but piles onto the most extreme
points, where the bend is worst. Matching a spread-out design does best, and
its advantage does not fade as the label budget grows.

Run:  python demos/03_toy_study.py
"""

import numpy as np

from lowcon import run_simulation, toy_config, toy_example

config = toy_config(r_list=(10, 20, 30, 40, 50), replicates=100, seed=0)
x, y = toy_example(config.n, np.random.default_rng(0), noise_sd=np.sqrt(config.sigma2))
print(f"Sample of {len(x)} points: core |x| <= "
      f"{np.quantile(np.abs(x), 0.9):.2f} for 90% of rows, max |x| = "
      f"{np.abs(x).max():.2f}")
print()

res = run_simulation(config)

print(f"{'labels r':>9} {'UNIF':>9} {'BLEV':>9} {'LOWCON':>9}")
for r in (10, 20, 30, 40, 50):
    row = {m: res.row(m, r).mse for m in ("UNIF", "BLEV", "LOWCON")}
    print(f"{r:>9} {row['UNIF']:>9.4f} {row['BLEV']:>9.4f} {row['LOWCON']:>9.4f}")

print()
print("MSE of the fitted slope against the true slope, 100 replicates each.")
