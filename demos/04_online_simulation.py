#!/usr/bin/env python3
# A slotted run: requests arrive each slot, live for 1-4 slots, release their
# resources on expiry, and the server fleet powers up and down around them.

from collections import Counter

from satchain import OnlineSimulation, SimulationConfig, arrival_count, generate_requests

config = SimulationConfig(slots=20)
sim = OnlineSimulation(config)
seed = 3

print("slot  new  allocated  payoff   mean-delay-cost")
for slot in range(config.slots):
    count = arrival_count(seed, slot, config.requests_per_slot)
    arrivals = generate_requests(
        count, sim.graph, config.ranges, seed, slot=slot, d=config.num_paths, start_id=sim.next_id
    )
    sim.next_id += count
    metrics = sim.step(slot, arrivals, "pgra", seed)
    print(f"{slot:4d}  {count:3d}  {metrics.allocated_fraction:9.2%}  {metrics.phi:7.3f}"
          f"  {metrics.mean_delay:15.4f}")

# The fleet keeps a per-slot audit of every server's mode and physical draw.
modes = Counter(row[2] for row in sim.fleet.timeline)
energy = sum(row[3] for row in sim.fleet.timeline)
print(f"\nserver-slot modes over the run: {dict(modes)}")
print(f"total fleet energy, 1-slot granularity: {energy:.0f} W-slots")
print("\nlast few audit rows (slot, node, mode, power):")
for row in sim.fleet.timeline[-6:]:
    print(f"  {row}")
