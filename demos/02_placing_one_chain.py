#!/usr/bin/env python3
# Place a single service chain two ways (beam search vs greedy) and compare
# the resulting cost breakdowns.

from satchain import (
    SimulationConfig,
    StrategyProfile,
    best_response,
    generate_requests,
    greedy_place,
)
from satchain.costing import SlotContext
from satchain.energy import Mode, ServerState

config = SimulationConfig()
graph = config.build_graph()

# All servers idle at the start of the slot.
states = {i: ServerState(Mode.IDLE, idle_since=0) for i in range(len(graph.nodes))}
context = SlotContext(slot=0, server_states=states, committed=[])

request = generate_requests(1, graph, config.ranges, rng_seed=424, d=config.num_paths)[0]
real = [v for v in request.vnfs if not v.is_pseudo]
print(f"request: {len(real)} VNFs, {request.source} -> {request.destination}, "
      f"{sum(v.cpu for v in real):.0f} vCPU total, budget {request.max_delay:.2f} ms, "
      f"lifetime {request.duration_slots} slot(s)")

profile = StrategyProfile.empty([request], context)

beam = best_response(request, profile, graph, config)
greedy = greedy_place(request, profile, graph, config)

for name, strategy in (("beam search", beam), ("greedy", greedy)):
    c = strategy.cost
    hops = sum(r.hop_count for r in strategy.routes)
    print(f"\n{name}:")
    print(f"  hosts  {strategy.hosts}")
    print(f"  routes {[r.nodes for r in strategy.routes]}")
    print(f"  bw={c.bw:.5f} power={c.power:.5f} delay={c.delay:.5f} "
          f"-> payoff {c.payoff:.5f} ({hops} hops)")

assert greedy.cost.payoff <= beam.cost.payoff + 1e-12
print("\nthe myopic pass never beats the beam search on the same instance")
