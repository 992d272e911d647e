#!/usr/bin/env python3
# Watch the best-response dynamics converge: one improving request commits
# per round, the network payoff climbs monotonically, and the final profile
# is an equilibrium no single request wants to leave.

from satchain import SimulationConfig, generate_requests, is_nash, network_payoff, pgra_run
from satchain.costing import SlotContext
from satchain.energy import Mode, ServerState

config = SimulationConfig()
graph = config.build_graph()
states = {i: ServerState(Mode.IDLE, idle_since=0) for i in range(len(graph.nodes))}
context = SlotContext(0, states, [])

requests = generate_requests(12, graph, config.ranges, rng_seed=7, d=config.num_paths)
profile, trace = pgra_run(requests, graph, context, config)

# "proposals" counts the improving proposals of the requests that searched: a
# request whose payoff ceiling cannot beat the round's best offer so far skips
# its search, since it could not win.  The converged round reads 0.
print("round  winner  payoff-before  payoff-after  improvement  proposals")
for row in trace.rows:
    winner = "-" if row.winner is None else f"r{row.winner}"
    print(f"{row.iteration:5d}  {winner:>6s}  {row.phi_before:13.5f}  {row.phi_after:12.5f}"
          f"  {row.improvement:11.6f}  {row.proposals:9d}")

allocated = profile.allocated_ids()
print(f"\nallocated {len(allocated)}/{len(requests)} requests, "
      f"network payoff {network_payoff(profile):.5f}")
print(f"equilibrium: {is_nash(profile, graph, config)}")

# The potential function moves exactly with the deviator's payoff: replay one
# request's alternatives and measure the identity residual.
from satchain import ContextView, potential_identity_check
from satchain.placement import viterbi_place

rid = allocated[0]
request = profile.requests[rid]
view = ContextView.build(graph, profile, exclude=rid)
worst = 0.0
for path in graph.candidate_sd_paths(request.source, request.destination, config.num_paths):
    alternative = viterbi_place(request, path, view, graph, config)
    if alternative is not None:
        worst = max(worst, potential_identity_check(profile, rid, alternative))
print(f"max |network-payoff change - own-payoff change| over r{rid}'s deviations: {worst:.2e}")
