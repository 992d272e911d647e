#!/usr/bin/env python3
# A scaled-down version of the paths-by-beam sweep: how much does widening
# the search (more candidate paths d, wider beam B) buy in network payoff?
# The full 16-cell, 10-repetition table runs via `satchain taguchi`.

from satchain import SimulationConfig, run_taguchi

config = SimulationConfig()
result = run_taguchi(
    config,
    d_levels=(1, 2, 4, 8),
    b_levels=(1, 4),
    m_values=(10, 20),
    repetitions=3,
    seed=0,
)

print("cell   d  beam   M=10      M=20")
by_cell = {}
for row in result.rows:
    by_cell.setdefault((row.d, row.beam), {})[row.requests] = row.mean_phi
for number, ((d, beam), phis) in enumerate(sorted(by_cell.items())):
    print(f"{number:4d}  {d:2d}  {beam:4d}   {phis[10]:.4f}   {phis[20]:.4f}")

print("\nmain effect of the candidate-path count (mean payoff per level):")
for level, per_m in sorted(result.effects["d"].items()):
    print(f"  d={level}: " + "  ".join(f"M={m}: {phi:.4f}" for m, phi in sorted(per_m.items())))

print("\nmain effect of the beam width:")
for level, per_m in sorted(result.effects["beam"].items()):
    print(f"  B={level}: " + "  ".join(f"M={m}: {phi:.4f}" for m, phi in sorted(per_m.items())))

wide = by_cell[(8, 4)]
narrow = by_cell[(1, 1)]
print(f"\nwidest vs narrowest search: M=10 {wide[10]:.4f} vs {narrow[10]:.4f}, "
      f"M=20 {wide[20]:.4f} vs {narrow[20]:.4f}")
