"""Calibrate the forgery pass rate against the 1/R_b analysis.

A forged aggregate passes the linear tag check only if the induced tag
offset vanishes modulo the tag modulus R_b, which for a random
perturbation happens with probability 1/R_b.  At the production
modulus (the prime 2^61 - 1) that is ~4.3e-19 and unobservable, so we
shrink R_b to 11 where 100k Monte Carlo trials resolve the rate, and
also confirm the large-modulus rate is exactly zero in 10k trials.
"""

from vsecagg.harness import RunConfig, default_params, forgery_calibration

result = forgery_calibration(r_b=11, trials=100_000, seed=1)
print(f"R_b = {result.r_b}, trials = {result.trials}")
print(f"analytical bound 1/R_b          = {result.bound:.5f}")
print(f"random-perturbation pass rate   = {result.tamper_rate:.5f}")
print(f"random-tag-guess pass rate      = {result.guess_rate:.5f}")
print(f"Monte Carlo standard error      = {result.stderr:.5f}")
within = (abs(result.tamper_rate - result.bound) < 3 * result.stderr
          and abs(result.guess_rate - result.bound) < 3 * result.stderr)
print(f"both rates within 3 SE of bound: {within}")

big = default_params(RunConfig()).r
prod = forgery_calibration(r_b=big, trials=10_000, seed=2)
print(f"\nproduction modulus {big}: pass rate over 10k trials = {prod.tamper_rate}")
