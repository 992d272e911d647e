"""Edge-server power model: the four-mode lifecycle and per-VNF energy charges.

A server is either serving (`ON`), powered but unused (`IDLE`), or switched
off.  An idle server is forced off after ``t_idle_max`` idle slots; an off
server becomes restartable (`OFF_AVAILABLE`) once it has been off for
``t_off_min`` slots, and restarting it costs one full setup slot at maximum
power.  Energy charged to an individual VNF depends on the server mode in the
placement slot and on whether the server keeps serving in the following slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Mode(enum.Enum):
    ON = "on"
    IDLE = "idle"
    OFF_UNAVAILABLE = "off_unavailable"
    OFF_AVAILABLE = "off_available"


# The library compares modes through these names: on CPython 3.10 and 3.11 a
# `Mode.ON` load goes through the enum metaclass's __getattr__, over 10x the
# cost of a global load, and the beam kernel makes such tests per expansion.
ON, IDLE, OFF_UNAVAILABLE, OFF_AVAILABLE = Mode


class IllegalTransition(Exception):
    """An unavailable-off server was asked to serve."""


@dataclass(frozen=True)
class PowerParams:
    """Electrical and timing characteristics of one edge server."""

    p_idle: float  # W drawn by a powered but unused server
    p_max: float  # W drawn at full CPU load; also the setup-slot draw
    t_idle_max: int  # slots a server may remain idle before forced off
    t_off_min: int  # slots a server must stay off before it may restart

    def __post_init__(self):
        if not 0 < self.p_idle < self.p_max:
            raise ValueError("require 0 < p_idle < p_max")
        for name in ("t_idle_max", "t_off_min"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1 slot")


@dataclass(frozen=True)
class ServerState:
    """Mode of one server plus the slot its current idle/off stretch began."""

    mode: Mode
    idle_since: int | None = None
    off_since: int | None = None

    def __post_init__(self):
        if self.mode is IDLE and self.idle_since is None:
            raise ValueError("idle state needs idle_since")
        if self.mode in (OFF_UNAVAILABLE, OFF_AVAILABLE) and self.off_since is None:
            raise ValueError("off state needs off_since")


def step_server_state(
    state: ServerState,
    params: PowerParams,
    occupied_this_slot: bool,
    current_slot: int,
) -> ServerState:
    """Advance one server to `current_slot`.

    An occupied server is ON (a restart from `OFF_AVAILABLE` spends this slot
    in setup).  An unoccupied server idles until it has been idle for
    ``t_idle_max`` slots, then switches off; it becomes available again once
    ``current_slot - off_since >= t_off_min``.
    """
    if occupied_this_slot:
        if state.mode is OFF_UNAVAILABLE:
            raise IllegalTransition("server is off and not yet restartable")
        return ServerState(ON)
    if state.mode in (ON, IDLE):
        since = current_slot if state.mode is ON else state.idle_since
        if current_slot - since >= params.t_idle_max:
            return ServerState(OFF_UNAVAILABLE, off_since=current_slot)
        return ServerState(IDLE, idle_since=since)
    if current_slot - state.off_since >= params.t_off_min:
        return ServerState(OFF_AVAILABLE, off_since=state.off_since)
    return state


def vnf_power_attribution(
    mode: Mode,
    serves_next_slot: bool,
    vnf_cpu: float,
    capacity_cpu: float,
    params: PowerParams,
    *,
    idle_already_charged: bool = False,
    idle_charge: str = "once",
) -> float:
    """Power (W) charged to one VNF placed in the current slot.

    Four cases by (server mode now, serves next slot):
      off + serves next      -> 0 (the setup pays forward into continued service)
      off + goes back off    -> p_max (the whole wasted setup slot)
      idle + goes idle/off   -> idle baseline (once per server unless
                                ``idle_charge == 'per_vnf'``) plus the CPU share
      idle/on + serves next  -> CPU-proportional share only
    """
    if mode is OFF_UNAVAILABLE:
        raise IllegalTransition("server cannot host in this slot")
    if mode is OFF_AVAILABLE:
        return 0.0 if serves_next_slot else params.p_max
    share = (vnf_cpu / capacity_cpu) * (params.p_max - params.p_idle)
    if mode is IDLE and not serves_next_slot:
        if idle_charge == "per_vnf" or not idle_already_charged:
            return params.p_idle + share
        return share
    return share


class ServerFleet:
    """Per-slot state keeper for all servers of one simulation.

    The simulation clock is the single writer: `advance` steps every state
    machine at the start of a slot, `mark_service` switches freshly loaded
    servers on after placement, and `record` appends one audit row per server
    (slot, node, mode, power).  The power is the server's physical draw, not
    a VNF charge: an ``on`` server draws its idle baseline plus its CPU share
    of the dynamic range, an idle one its baseline and an off one nothing.  A
    restart slot is recorded as mode ``setup`` at maximum power.  Server
    ``n`` is ``nodes[n]``, a graph's satellite, whose CPU capacity and power
    parameters the fleet reads.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes
        self.states: dict[int, ServerState] = {n: ServerState(IDLE, idle_since=0) for n in range(len(nodes))}
        self._setup_nodes: set[int] = set()
        self.timeline: list[tuple[int, int, str, float]] = []

    def advance(self, occupied: set[int], slot: int) -> None:
        self._setup_nodes = set()
        for n, state in self.states.items():
            self.states[n] = step_server_state(state, self.nodes[n].power, n in occupied, slot)

    def mark_service(self, nodes: set[int]) -> None:
        for n in nodes:
            if self.states[n].mode is OFF_AVAILABLE:
                self._setup_nodes.add(n)
            elif self.states[n].mode is OFF_UNAVAILABLE:
                raise IllegalTransition(f"node {n} cannot serve in this slot")
            self.states[n] = ServerState(ON)

    def record(self, slot: int, allocated_cpu: dict[int, float]) -> None:
        for n in sorted(self.states):
            mode, params, capacity = self.states[n].mode, self.nodes[n].power, self.nodes[n].cpu
            setup = n in self._setup_nodes
            if setup:
                power = params.p_max
            elif mode is ON:
                cpu = allocated_cpu.get(n, 0.0)
                if not 0 <= cpu <= capacity + 1e-9:  # the tolerance `check_feasibility` allows
                    raise ValueError(f"node {n}: allocation {cpu} outside [0, {capacity}]")
                power = params.p_idle + (min(cpu, capacity) / capacity) * (params.p_max - params.p_idle)
            elif mode is IDLE:
                power = params.p_idle
            else:
                power = 0.0
            self.timeline.append((slot, n, "setup" if setup else mode.value, power))
