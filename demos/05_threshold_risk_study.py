"""Why you might not want the mean-optimal controller.

The mean-optimal feedback gain minimizes E[J], but if what you actually care
about is the chance of the cost blowing past a budget, a gain with a higher
mean and a lower *variance* can violate the budget far less often.  This
study tunes such a gain by BFGS on the analytic variance and its exact
gradient, and compares threshold-exceedance frequencies by simulation.

Note on path count: this demo uses 40 000 paths to stay quick; the CLI
command `lqgcost reproduce-example` runs the full 250 000-path version.
The process-noise intensity and initial state of the original study are
undocumented; the assumption V = I, mu0 = 0, Sigma0 = 0 is printed with the
results and all absolute numbers are conditional on it.
"""

import numpy as np

from lqgcost import threshold_study

report = threshold_study(n_paths=40_000, dt=0.01, horizon=20.0,
                         threshold=1500.0, seed=11, tune_max_iter=1500)

a = report["assumption"]
print(f"assumption: V = {a['V']}, mu0 = {a['mu0']}, Sigma0 = {a['Sigma0']}")
print(f"threshold: J > {report['config']['threshold']:g}\n")

# E[J] and sd[J] are the analytic values over the simulated horizon T = 20,
# the interval the exceedance counts come from
print(f"{'gain':<24s} {'E[J] T=20':>9s} {'sd[J] T=20':>10s} {'p(J>thr)':>10s} {'count':>6s}")
for label in ("mean_optimal", "variance_minimizing"):
    row = report[label]
    gain = ", ".join(f"{g:.3f}" for g in np.ravel(row["gain"]))
    print(f"[{gain}]".ljust(24)
          + f" {row['analytic']['mean']:>9.2f} {row['analytic']['std']:>10.2f}"
          + f" {row['empirical']['exceed_prob']:>10.4%}"
          + f" {row['empirical']['exceed_count']:>6d}")

print(f"\nvariance-minimizing gain violates the budget less often: "
      f"{report['direction_holds']}")

print("\ninfinite-horizon variance (the tuner's objective) along the segment "
      "between the two gains:")
for pt in report["variance_landscape_on_segment"]:
    bar = "#" * int(60 * (pt["variance"] / report["variance_landscape_on_segment"][0]["variance"]))
    print(f"  t = {pt['t']:.2f}  var = {pt['variance']:>9.1f}  {bar}")
