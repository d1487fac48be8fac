"""The contrast model: a raw offset between systems is not a contrast difference.

Simulates two recording systems measuring the same speaker, where one
system reads 18 points higher across the board. The system main effect is
large and significant, yet every difference-of-differences estimate is
zero: the offset cancels, so both systems capture the same environment
contrasts.
"""

import numpy as np

from nasalance import (
    TokenRecord,
    difference_of_differences_table,
    emmeans,
    fit_nasalance_model,
    pairwise_env_contrasts,
)

rng = np.random.default_rng(0)
records = []
for env, env_mean in (("bV", 34.0), ("bVn", 52.0), ("mVn", 66.0)):
    for vowel in ("KIT", "DRESS"):
        for rep in range(6):
            base = env_mean + (2.0 if vowel == "DRESS" else 0.0) + rng.normal(0, 2.0)
            for system, offset in (("icspeech", 0.0), ("nosey", 18.0)):
                records.append(TokenRecord(
                    source_id=f"{system}-{rep}", speaker="sp1", system=system,
                    word="w", vowel=vowel, environment=env, t_mid_s=0.5,
                    nasalance_pct=base + offset,
                ))

fit = fit_nasalance_model(records)
print(f"n = {len(records)}, residual df = {fit.residual_df}")
i = fit.names.index("system.icspeech")
print(f"system coefficient: {fit.estimates[i]:+.3f} "
      f"(se {np.sqrt(fit.covariance[i, i]):.3f}) -> half the raw offset")

emms = emmeans(fit)
print("\nestimated marginal means:")
for row in emms:
    print(f"  {row.system:9} {row.environment:4} {row.emm:6.2f} (se {row.se:.3f})")

print("\npairwise environment contrasts within each system:")
for system in ("icspeech", "nosey"):
    for row in pairwise_env_contrasts(fit, system):
        print(f"  {row.description:28} {row.estimate:+7.2f}  p_adj={row.p_adjusted:.4f}")

print("\ndifference of differences (positive: first system's contrast larger):")
for row in difference_of_differences_table(fit):
    print(f"  {row.description:32} {row.estimate:+10.2e}  p_adj={row.p_adjusted:.3f}")
print("\nall estimates are numerically zero: the constant offset cancels.")
