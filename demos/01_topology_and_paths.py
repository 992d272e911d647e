#!/usr/bin/env python3
# Build a few constellations, look at their wiring, and explore the ranked
# candidate-path machinery that every placement decision sits on.

from satchain import PowerParams, SatelliteNode, build_constellation

POWER = PowerParams(p_idle=49.9, p_max=415.0, t_idle_max=3, t_off_min=1)
NODE = SatelliteNode(cpu=112.0, memory=192.0, power=POWER)  # every satellite repeats it

# The reference setup: 3 orbital planes. With 2 satellites per plane, the
# wrap-around ring links collapse into single links, so the graph has 9
# undirected ISLs instead of a full degree-4 torus.
graph = build_constellation(3, 2, 600.0, 400.0, NODE, link_bandwidth=100.0)
print(f"6-node constellation: {len(graph.links)} links, "
      f"total bandwidth {graph.total_bandwidth:.0f} Mbps")
for link in graph.links:
    kind = "intra-plane" if link.distance == 600.0 else "inter-plane"
    print(f"  {link.u} -- {link.v}  {kind:11s} {link.distance:.0f} km  {link.delay:.4f} ms")

# At 5 satellites per plane every node reaches exactly 4 neighbours.
big = build_constellation(3, 5, 600.0, 400.0, NODE, 100.0)
degrees = {len(neighbours) for neighbours in big._adj}
print(f"\n15-node constellation: degrees {sorted(degrees)}, {len(big.links)} links")

# Candidate paths are the d shortest loopless routes, ranked by delay with
# deterministic tie-breaking, so repeated runs see identical sets.
print("\n4 candidate paths from node 0 to node 5:")
for path in graph.k_shortest_paths(0, 5, 4):
    print(f"  {path.nodes}  {path.total_delay:.4f} ms  {path.hop_count} hops")

# When a request starts and ends on the same satellite the candidates are the
# zero-hop stay-at-home path plus out-and-back walks to the nearest nodes.
print("\ncandidates when source = destination = node 0:")
for path in graph.candidate_sd_paths(0, 0, 3):
    print(f"  {path.nodes}  {path.total_delay:.4f} ms")

# Placement reads the route matrix: routes[a][b] holds the ranked paths
# from a to b, filled once per path count d and shared after that.
row = [path for paths in graph.route_matrix(4)[0] for path in paths]
print(f"\nroute matrix row of node 0 (d = 4): {len(row)} paths, "
      f"{sum(p.hop_count for p in row)} links, total delay {sum(p.total_delay for p in row):.4f} ms")
