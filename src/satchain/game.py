"""Best-response dynamics with single-winner commits (the PGRA allocator).

Each iteration, every request computes its best response against an immutable
snapshot of the others' strategies.  Among the requests whose proposal is a
genuine change and improves their own payoff, exactly one commits: the one
with the largest improvement (ties to the smallest request id).  Because
committed cost breakdowns stay frozen, a unilateral strategy swap moves the
network payoff by exactly the deviator's payoff change, so every commit
raises the network payoff and the dynamics terminate at a profile where no
request can improve by changing only its own strategy.

Between iterations only the winner's strategy changes, so most best
responses would repeat themselves.  `pgra_run` keeps a memo entry per
request: its `ContextView`, built on its first best response, and one
`placement.Certificate` for all of its corridor searches: the outcome of
the capacity and bandwidth tests they made and the server flags their power
rule read.  ``profile.strategies`` logs each commit, whose change to a view
is worked out once; each view catches up by adding the changes it has not
read.  A best response whose certificate holds for the caught-up view is
not computed again: its stored result is what the kernel would return,
because the certificate replays the kernel's own comparisons.  The check
tests only the nodes and links that catch-up changed, since every other
test passed before on the values it still reads.  Server modes, the graph,
the requests and the config are fixed within one call and the memo dies
with it, so no view or result crosses slots.  `is_nash` runs uncached, so
it checks the cached dynamics independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .costing import StrategyProfile, SlotContext, Strategy, network_payoff
from .placement import best_response
from .topology import NetworkGraph

if TYPE_CHECKING:
    from .harness import SimulationConfig

EPSILON = 1e-9  # the smallest payoff gain that counts as an improving move


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    winner: int | None
    phi_before: float
    phi_after: float
    improvement: float
    proposals: int  # improving change proposals this iteration


@dataclass
class GameTrace:
    rows: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def converged(self) -> bool:
        """True when the run ended on an iteration with no improving proposal,
        False when ``k_max`` cut it off after a commit."""
        return bool(self.rows) and self.rows[-1].winner is None


def _improving_move(request, profile: StrategyProfile, graph: NetworkGraph, config: SimulationConfig, memo=None):
    """(best response, payoff gain) when it is a move, else None.

    A best response that merely re-prices the current placement under a
    shifted context is not a move; only a structurally different proposal
    with a payoff gain above `EPSILON` counts.  Paths are frozen and a node
    sequence fixes a route's links and its `math.fsum` delay, so equal
    (hosts, routes) is the same placement.  `memo` goes to `best_response`.
    """
    current = profile.strategies[request.id]
    proposal = best_response(request, profile, graph, config, memo)
    if proposal is None or (proposal.hosts, proposal.routes) == (current.hosts, current.routes):
        return None
    gain = proposal.payoff - current.payoff
    return (proposal, gain) if gain > EPSILON else None


def pgra_run(
    requests: list,
    graph: NetworkGraph,
    context: SlotContext,
    config: SimulationConfig,
    on_commit=None,
) -> tuple:
    """Run the dynamics for one slot's requests; returns (profile, trace).

    All strategies start unallocated.  The run stops when no request proposes
    an improving change (payoff gain above `EPSILON`) or after ``k_max``
    iterations.  ``on_commit``, when given, is called with the profile after
    every committed iteration (used by validation harnesses).
    """
    profile = StrategyProfile.empty(requests, context)
    trace = GameTrace()
    order = sorted(profile.requests)
    memo: dict = {}  # kept views and certified best responses; modes, graph and config are fixed for this call
    for k in range(config.k_max):
        phi_before = network_payoff(profile)
        best_improvement = 0.0
        winner: Strategy | None = None
        proposals = 0
        for rid in order:
            move = _improving_move(profile.requests[rid], profile, graph, config, memo)
            if move is None:
                continue
            proposal, improvement = move
            proposals += 1
            if winner is None or improvement > best_improvement:
                best_improvement = improvement
                winner = proposal
        if winner is None:
            trace.rows.append(IterationRecord(k, None, phi_before, phi_before, 0.0, 0))
            break
        profile.strategies[winner.request_id] = winner
        phi_after = network_payoff(profile)
        trace.rows.append(
            IterationRecord(k, winner.request_id, phi_before, phi_after, best_improvement, proposals)
        )
        if on_commit is not None:
            on_commit(profile)
    return profile, trace


def is_nash(profile: StrategyProfile, graph: NetworkGraph, config: SimulationConfig) -> bool:
    """True when no request has an improving unilateral move left."""
    return all(
        _improving_move(profile.requests[rid], profile, graph, config) is None for rid in sorted(profile.requests)
    )


def potential_identity_check(profile: StrategyProfile, request_id: int, alternative: Strategy) -> float:
    """|network payoff change - deviator payoff change| for one swap.

    Zero (to float cancellation) because all other stored payoffs are held
    fixed while one strategy is replaced.
    """
    current = profile.strategies[request_id]
    phi_before = network_payoff(profile)
    strategies = dict(profile.strategies)
    strategies[alternative.request_id] = alternative
    phi_after = network_payoff(StrategyProfile(profile.requests, strategies, profile.context))
    return abs((phi_after - phi_before) - (alternative.payoff - current.payoff))
