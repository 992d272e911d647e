import inspect
import types

import numpy as np
import pytest

from satchain import checks, cli, costing, energy, game, harness, placement, topology
from satchain.energy import (
    IDLE,
    OFF_AVAILABLE,
    OFF_UNAVAILABLE,
    ON,
    IllegalTransition,
    Mode,
    PowerParams,
    ServerFleet,
    ServerState,
    step_server_state,
    vnf_power_attribution,
)

from conftest import TABLE_POWER


class TestStepServerState:
    def test_idle_past_threshold_switches_off(self):
        state = ServerState(Mode.IDLE, idle_since=1)
        out = step_server_state(state, TABLE_POWER, occupied_this_slot=False, current_slot=5)
        assert out == ServerState(Mode.OFF_UNAVAILABLE, off_since=5)

    def test_unavailable_becomes_available_after_min_off(self):
        state = ServerState(Mode.OFF_UNAVAILABLE, off_since=5)
        out = step_server_state(state, TABLE_POWER, occupied_this_slot=False, current_slot=6)
        assert out == ServerState(Mode.OFF_AVAILABLE, off_since=5)

    def test_occupied_server_stays_on(self):
        out = step_server_state(ServerState(Mode.ON), TABLE_POWER, True, 3)
        assert out.mode is Mode.ON

    def test_available_off_server_can_restart(self):
        state = ServerState(Mode.OFF_AVAILABLE, off_since=2)
        assert step_server_state(state, TABLE_POWER, True, 4).mode is Mode.ON

    def test_unavailable_off_server_cannot_serve(self):
        state = ServerState(Mode.OFF_UNAVAILABLE, off_since=4)
        with pytest.raises(IllegalTransition):
            step_server_state(state, TABLE_POWER, True, 4)

    def test_on_to_idle_starts_the_idle_clock(self):
        out = step_server_state(ServerState(Mode.ON), TABLE_POWER, False, 7)
        assert out == ServerState(Mode.IDLE, idle_since=7)

    def test_full_lifecycle_timing(self):
        # served in slot 0, then unoccupied: idle slots 1-3, off at 4, restartable at 5
        state = ServerState(Mode.ON)
        modes = []
        for slot in range(1, 6):
            state = step_server_state(state, TABLE_POWER, False, slot)
            modes.append(state.mode)
        assert modes == [Mode.IDLE, Mode.IDLE, Mode.IDLE, Mode.OFF_UNAVAILABLE, Mode.OFF_AVAILABLE]
        assert step_server_state(state, TABLE_POWER, True, 6).mode is Mode.ON

    def test_idle_never_outlives_threshold(self):
        state = ServerState(Mode.ON)
        for slot in range(1, 30):
            state = step_server_state(state, TABLE_POWER, False, slot)
            if state.mode is Mode.IDLE:
                assert slot - state.idle_since < TABLE_POWER.t_idle_max
            if state.mode is Mode.OFF_AVAILABLE:
                assert slot - state.off_since >= TABLE_POWER.t_off_min


class TestAttribution:
    def test_off_server_that_keeps_serving_is_free(self):
        watts = vnf_power_attribution(Mode.OFF_AVAILABLE, True, 4, 112, TABLE_POWER)
        assert watts == 0.0

    def test_off_server_woken_for_one_slot_pays_full_setup(self):
        watts = vnf_power_attribution(Mode.OFF_AVAILABLE, False, 4, 112, TABLE_POWER)
        assert watts == 415.0

    def test_idle_server_without_follow_up_pays_baseline_plus_share(self):
        share = (4 / 112) * (415.0 - 49.9)
        watts = vnf_power_attribution(Mode.IDLE, False, 4, 112, TABLE_POWER)
        assert watts == pytest.approx(49.9 + share, rel=1e-12)
        co_located = vnf_power_attribution(Mode.IDLE, False, 4, 112, TABLE_POWER, idle_already_charged=True)
        assert co_located == pytest.approx(share, rel=1e-12)

    def test_per_vnf_idle_charging_ignores_co_location(self):
        watts = vnf_power_attribution(
            Mode.IDLE, False, 4, 112, TABLE_POWER, idle_already_charged=True, idle_charge="per_vnf"
        )
        assert watts == pytest.approx(49.9 + (4 / 112) * 365.1, rel=1e-12)

    def test_serving_server_pays_cpu_share_only(self):
        expected = (4 / 112) * 365.1
        assert vnf_power_attribution(Mode.IDLE, True, 4, 112, TABLE_POWER) == pytest.approx(expected, rel=1e-12)
        assert vnf_power_attribution(Mode.ON, True, 4, 112, TABLE_POWER) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(13.0393, abs=1e-4)

    def test_unavailable_server_rejects_placement(self):
        with pytest.raises(IllegalTransition):
            vnf_power_attribution(Mode.OFF_UNAVAILABLE, False, 4, 112, TABLE_POWER)

    def test_attribution_always_within_zero_and_p_max(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            mode = [Mode.ON, Mode.IDLE, Mode.OFF_AVAILABLE][int(rng.integers(3))]
            serves = bool(rng.integers(2))
            cpu = float(rng.integers(1, 113))
            watts = vnf_power_attribution(
                mode, serves, cpu, 112, TABLE_POWER, idle_already_charged=bool(rng.integers(2))
            )
            assert 0.0 <= watts <= TABLE_POWER.p_max + 1e-12

    def test_co_located_charges_never_exceed_active_server_power(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            cpus = rng.integers(4, 9, size=int(rng.integers(1, 12)))
            if cpus.sum() > 112:
                continue
            serves = bool(rng.integers(2))
            total = 0.0
            charged = False
            for cpu in cpus:
                total += vnf_power_attribution(
                    Mode.IDLE, serves, float(cpu), 112, TABLE_POWER, idle_already_charged=charged
                )
                if not serves:
                    charged = True
            active = TABLE_POWER.p_idle + float(cpus.sum()) / 112 * (TABLE_POWER.p_max - TABLE_POWER.p_idle)
            assert total <= active + 1e-9


def serving_power(cpu):
    """The draw `ServerFleet.record` logs for one serving 112-vCPU server with ``cpu`` allocated."""
    fleet = ServerFleet({0: TABLE_POWER})
    fleet.mark_service({0})
    fleet.record(0, {0: cpu}, {0: 112.0})
    (row,) = fleet.timeline
    assert row[:3] == (0, 0, "on")
    return row[3]


class TestServerActivePower:
    def test_unloaded_server_draws_idle_power(self):
        assert serving_power(0.0) == 49.9

    def test_fully_loaded_server_draws_p_max(self):
        assert serving_power(112.0) == pytest.approx(415.0, rel=1e-12)

    def test_half_loaded_server(self):
        assert serving_power(56.0) == pytest.approx(232.45, rel=1e-12)

    def test_rejects_over_allocation(self):
        with pytest.raises(ValueError, match="node 0"):
            serving_power(113.0)


class TestFleetTimeline:
    def test_scripted_restart_records_setup_at_p_max(self):
        fleet = ServerFleet({0: TABLE_POWER})
        capacity = {0: 112.0}
        fleet.mark_service({0})
        fleet.record(0, {0: 8.0}, capacity)
        for slot in (1, 2, 3, 4, 5):
            fleet.advance(set(), slot)
            fleet.record(slot, {}, capacity)
        fleet.mark_service({0})
        fleet.record(5, {0: 8.0}, capacity)  # same slot, after placement
        fleet.advance({0}, 6)
        fleet.record(6, {0: 8.0}, capacity)
        expected_on = serving_power(8.0)
        assert fleet.timeline == [
            (0, 0, "on", expected_on),
            (1, 0, "idle", 49.9),
            (2, 0, "idle", 49.9),
            (3, 0, "idle", 49.9),
            (4, 0, "off_unavailable", 0.0),
            (5, 0, "off_available", 0.0),
            (5, 0, "setup", 415.0),
            (6, 0, "on", expected_on),
        ]

    def test_slot_power_modes(self):
        fleet = ServerFleet({n: TABLE_POWER for n in range(4)})
        fleet.states[0] = fleet.states[3] = ServerState(Mode.OFF_AVAILABLE, off_since=0)
        fleet.mark_service({2, 3})
        fleet.record(1, {2: 112.0}, dict.fromkeys(range(4), 112.0))
        assert fleet.timeline == [
            (1, 0, "off_available", 0.0),
            (1, 1, "idle", 49.9),
            (1, 2, "on", pytest.approx(415.0)),
            (1, 3, "setup", 415.0),
        ]


def _nested_code(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _nested_code(const)


class TestModeNames:
    def test_module_names_are_the_members_in_order(self):
        assert list(Mode) == [ON, IDLE, OFF_UNAVAILABLE, OFF_AVAILABLE]
        for member in Mode:
            assert getattr(energy, member.name) is member

    @pytest.mark.parametrize("module", [energy, costing, placement], ids=lambda m: m.__name__)
    def test_library_code_compares_modes_through_the_module_names(self, module):
        # a `Mode.X` load goes through the enum metaclass's __getattr__, the slow
        # path the module names avoid; comprehensions are nested code objects too
        top = compile(inspect.getsource(module), module.__file__, "exec")
        assert [code.co_name for code in _nested_code(top) if "Mode" in code.co_names] == []


class TestHoldingRule:
    @pytest.mark.parametrize("module", [harness, energy, game, checks, cli, topology], ids=lambda m: m.__name__)
    def test_only_the_holding_modules_skip_pseudo_endpoints(self, module):
        # what a placement holds is `ContextView.hold`'s rule; a second walk
        # of a strategy's hosts outside costing/placement/workload would copy it
        top = compile(inspect.getsource(module), module.__file__, "exec")
        assert [code.co_name for code in (top, *_nested_code(top)) if "is_pseudo" in code.co_names] == []
