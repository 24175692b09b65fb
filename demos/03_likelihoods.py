"""Student-t and Gaussian likelihood heads: projections, densities, sampling.

Run:

    python demos/03_likelihoods.py
"""

import numpy as np

from prb_oracle import GaussianParams, StudentTParams
from prb_oracle.likelihoods import (
    gaussian_logpdf,
    project_gaussian,
    project_studentt,
    sample,
    studentt_logpdf,
)

# Raw network outputs become valid parameters through softplus projections;
# nu also gets a fixed floor of 2 (likelihoods.NU_FLOOR), so variance always exists.
raw = (58.0, 1.2, 0.4)
print("raw head output ", raw)
print("projected       ", project_studentt(raw))
print("gaussian head   ", project_gaussian(raw[:2]))

# Density shapes: the Student-t trades a lower peak for heavier tails.
t = StudentTParams(mu=0.0, sigma=1.0, nu=3.0)
g = GaussianParams(mu=0.0, sigma=1.0)
print("\n   y   t-logpdf  gauss-logpdf")
for y in (0.0, 1.0, 2.0, 4.0, 8.0):
    print(f"{y:4.0f} {studentt_logpdf(y, t):10.4f} {gaussian_logpdf(y, g):12.4f}")

# Monte Carlo draws are deterministic per rng seed and location-scale
# equivariant; the forecasters build their sample paths from these.
rng = np.random.default_rng(7)
draws = sample(StudentTParams(mu=60.0, sigma=5.0, nu=4.0), rng, 100_000)
print(f"\n100k Student-t draws: median {np.median(draws):.2f} "
      f"(mu=60), IQR {np.percentile(draws, 75) - np.percentile(draws, 25):.2f}")
q = np.quantile(draws, [0.05, 0.5, 0.95])
print(f"empirical 5/50/95 percentiles: {q.round(2)}")
