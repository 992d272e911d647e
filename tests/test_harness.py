import gc
import hashlib
import json
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satchain.cli import main
from satchain.energy import Mode
from satchain.harness import (
    ALGORITHMS,
    OnlineSimulation,
    SimulationConfig,
    SlotMetrics,
    SweepRow,
    derive_seed,
    emit_text,
    run_batch,
    run_online,
    run_taguchi,
)
from satchain.workload import arrival_count, generate_requests

from conftest import TABLE_POWER, make_graph, make_request
from oracles import cpu_by_host
from test_placement import drawn_requests, drawn_ring


class TestRunBatch:
    def test_no_requests(self):
        config = SimulationConfig(requests=0)
        metrics = run_batch(config, "pgra", seed=1)
        assert metrics.phi == 0.0
        assert metrics.allocated_fraction == 1.0
        assert metrics.iterations == 1

    def test_small_load_allocates_everyone(self):
        config = SimulationConfig(requests=5)
        metrics = run_batch(config, "pgra", seed=3)
        assert metrics.allocated_fraction == 1.0

    def test_identical_runs_identical_metrics(self):
        config = SimulationConfig(requests=8)
        assert run_batch(config, "pgra", seed=11) == run_batch(config, "pgra", seed=11)

    def test_baselines_run_single_pass(self):
        config = SimulationConfig(requests=6)
        for algorithm in ("viterbi", "greedy"):
            metrics = run_batch(config, algorithm, seed=2)
            assert metrics.iterations == 1
            assert 0.0 <= metrics.allocated_fraction <= 1.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_batch(SimulationConfig(requests=1), "annealing", seed=0)

    def test_validation_hook_runs_clean(self):
        config = SimulationConfig(requests=8, validate_each_step=True)
        run_batch(config, "pgra", seed=5)

    def test_k_max_cut_off_warns(self):
        with pytest.warns(RuntimeWarning, match="slot 0: pgra stopped at k_max=5"):
            metrics = run_batch(SimulationConfig(k_max=5), "pgra", seed=0)
        assert metrics.iterations == 5
        assert metrics.allocated_fraction == 0.5

    def test_converged_run_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_batch(SimulationConfig(requests=4), "pgra", seed=0)


class TestOnlineSimulation:
    def _tiny_config(self):
        return SimulationConfig(
            planes=1,
            sats_per_plane=2,
            cpu=20.0,
            memory=64.0,
            num_paths=2,
            beam_width=4,
        )

    def test_resources_hold_for_the_lifetime_then_release(self):
        # request 0 fills the node for slots 4-5, so an arrival in slot 5 is
        # rejected and the same-sized arrival in slot 6 fits again
        config = self._tiny_config()
        graph = make_graph(1, [], cpu=20.0, memory=64.0)
        sim = OnlineSimulation(replace(config, planes=1, sats_per_plane=1), graph)
        for slot in (0, 1, 2, 3):
            sim.step(slot, [], "pgra", seed=0)
        assert sim.fleet.states[0].mode is Mode.OFF_UNAVAILABLE
        r1 = make_request(0, 0, 0, [(15.0, 8.0, 10.0)], max_delay=50.0, duration=2, arrival_slot=4)
        m4 = sim.step(4, [r1], "pgra", seed=0)
        assert m4.allocated_fraction == 1.0
        assert m4.mean_power == 0.0  # restart feeds straight into slot 5 service
        assert sim.running and sim.running[0].end_slot == 5
        r2 = make_request(1, 0, 0, [(15.0, 8.0, 10.0)], max_delay=50.0, duration=1, arrival_slot=5)
        m5 = sim.step(5, [r2], "pgra", seed=0)
        assert m5.allocated_fraction == 0.0
        r3 = make_request(2, 0, 0, [(15.0, 8.0, 10.0)], max_delay=50.0, duration=1, arrival_slot=6)
        m6 = sim.step(6, [r3], "pgra", seed=0)
        assert m6.allocated_fraction == 1.0
        assert all(p.request.id != 0 for p in sim.running)

    def test_server_states_follow_occupancy(self):
        config = self._tiny_config()
        graph = make_graph(1, [], cpu=20.0, memory=64.0)
        sim = OnlineSimulation(replace(config, sats_per_plane=1), graph)
        request = make_request(0, 0, 0, [(8.0, 8.0, 10.0)], max_delay=50.0, duration=1, arrival_slot=0)
        sim.step(0, [request], "pgra", seed=0)
        assert sim.fleet.states[0].mode is Mode.ON
        for slot in (1, 2, 3):
            sim.step(slot, [], "pgra", seed=0)
            assert sim.fleet.states[0].mode is Mode.IDLE
        sim.step(4, [], "pgra", seed=0)
        assert sim.fleet.states[0].mode is Mode.OFF_UNAVAILABLE
        sim.step(5, [], "pgra", seed=0)
        assert sim.fleet.states[0].mode is Mode.OFF_AVAILABLE
        modes = [row[2] for row in sim.fleet.timeline]
        assert modes == ["on", "idle", "idle", "idle", "off_unavailable", "off_available"]

    def test_restart_recorded_as_setup(self):
        config = self._tiny_config()
        graph = make_graph(1, [], cpu=20.0, memory=64.0)
        sim = OnlineSimulation(replace(config, sats_per_plane=1), graph)
        for slot in range(5):
            sim.step(slot, [], "pgra", seed=0)
        assert sim.fleet.states[0].mode is Mode.OFF_AVAILABLE
        request = make_request(0, 0, 0, [(8.0, 8.0, 10.0)], max_delay=50.0, duration=2, arrival_slot=5)
        sim.step(5, [request], "pgra", seed=0)
        assert sim.fleet.timeline[-1][2] == "setup"
        assert sim.fleet.timeline[-1][3] == 415.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fleet_takes_a_load_that_fills_the_node_up_to_rounding(self, algorithm):
        # 0.1 + 0.2 rounds above 0.3; the feasibility check allows 1e-9 over
        # capacity, so the fleet must too, and the draw stays at p_max
        graph = make_graph(1, [], cpu=0.3, memory=64.0)
        sim = OnlineSimulation(replace(self._tiny_config(), sats_per_plane=1, validate_each_step=True), graph)
        request = make_request(0, 0, 0, [(0.1, 1.0, 10.0), (0.2, 1.0, 10.0)], max_delay=50.0)
        metrics = sim.step(0, [request], algorithm, seed=0)
        assert metrics.allocated_fraction == 1.0
        assert sim.fleet.timeline == [(0, 0, "on", 415.0)]

    def test_single_slot_online_equals_batch(self):
        config = SimulationConfig(slots=1, requests_per_slot=(6, 6), requests=6)
        online = run_online(config, "pgra", seed=9)[0]
        batch = run_batch(config, "pgra", seed=9)
        assert online.phi == batch.phi
        assert online.allocated_fraction == batch.allocated_fraction

    def test_full_run_shape_and_determinism(self):
        config = SimulationConfig(slots=6, validate_each_step=True)
        a = run_online(config, "pgra", seed=4)
        b = run_online(config, "pgra", seed=4)
        assert a == b
        assert [m.slot for m in a] == list(range(6))
        for metrics in a:
            assert 0.0 <= metrics.allocated_fraction <= 1.0
            assert 0.0 <= metrics.phi <= 10.0  # at most requests_per_slot[1] payoffs of 1


def assert_drawn_online_run_is_legal(data, divisor):
    """Step a drawn on-line run on a 2-7-node ring whose servers draw their
    idle and off thresholds, checking every slot's feasibility and, from the
    fleet's timeline: running hosts are exactly the ``on``/``setup`` nodes,
    each ``on`` row draws the fleet's power for the CPU the running set holds
    there, a slot's draw lies in ``[0, sum p_max]``, no node idles past
    ``t_idle_max`` and a restart follows at least ``t_off_min`` off slots."""
    threshold = lambda: data.draw(st.integers(1, 3))
    graph = drawn_ring(data, divisor, lambda: replace(TABLE_POWER, t_idle_max=threshold(), t_off_min=threshold()))
    nodes, n = graph.nodes, len(graph.nodes)
    config = SimulationConfig(
        num_paths=data.draw(st.integers(1, 4)),
        beam_width=data.draw(st.integers(1, 4)),
        idle_charge=data.draw(st.sampled_from(("once", "per_vnf"))),
        validate_each_step=True,
    )
    algorithm = data.draw(st.sampled_from(ALGORITHMS))
    sim = OnlineSimulation(config, graph)
    p_max_total = sum(node.power.p_max for node in nodes)
    for slot in range(data.draw(st.integers(3, 6))):
        arrivals = drawn_requests(data, n, divisor, start_id=sim.next_id)
        sim.next_id += len(arrivals)
        sim.step(slot, arrivals, algorithm, 0)
        rows = sim.fleet.timeline[-n:]
        assert [(row[0], row[1]) for row in rows] == [(slot, i) for i in range(n)]
        cpu = cpu_by_host(sim.running)
        assert {i for _, i, mode, _ in rows if mode in ("on", "setup")} == set(cpu)
        for _, i, mode, power in rows:
            if mode == "on":
                params = nodes[i].power
                share = min(cpu[i], nodes[i].cpu) / nodes[i].cpu
                assert power.hex() == (params.p_idle + share * (params.p_max - params.p_idle)).hex()
        assert 0.0 <= sum(row[3] for row in rows) <= p_max_total
    for i, node in enumerate(nodes):
        modes = [row[2] for row in sim.fleet.timeline[i::n]]
        idle_run = 0
        for s, mode in enumerate(modes):
            idle_run = idle_run + 1 if mode == "idle" else 0
            assert idle_run <= node.power.t_idle_max
            if mode == "setup":
                off_start = s
                while off_start > 0 and modes[off_start - 1].startswith("off"):
                    off_start -= 1
                assert off_start < s
                assert s - off_start >= node.power.t_off_min


class TestDrawnOnlineRuns:
    @pytest.mark.parametrize("divisor", [1, 10])
    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(data=st.data())
    def test_fleet_timeline_is_legal_and_draws_the_held_load(self, divisor, data):
        assert_drawn_online_run_is_legal(data, divisor)


class TestTaguchi:
    def test_single_cell_equals_run_batch(self):
        config = SimulationConfig()
        result = run_taguchi(config, d_levels=(2,), b_levels=(2,), m_values=(4,), repetitions=1, seed=5)
        direct = run_batch(replace(config, num_paths=2, beam_width=2, requests=4), "pgra", derive_seed(5, 4, 0))
        assert result.rows == [SweepRow(number=0, d=2, beam=2, requests=4, mean_phi=direct.phi)]

    def test_table_and_effect_shapes(self):
        config = SimulationConfig()
        result = run_taguchi(
            config, d_levels=(1, 2), b_levels=(1, 2), m_values=(3, 5), repetitions=2, seed=1
        )
        assert len(result.rows) == 8
        assert set(result.effects) == {"d", "beam"}
        for factor in ("d", "beam"):
            assert set(result.effects[factor]) == {1, 2}
            for level in (1, 2):
                assert set(result.effects[factor][level]) == {3, 5}
        text = result.to_csv_text()
        assert text.splitlines()[0] == "number,d,beam,requests,mean_phi"
        parsed = json.loads(result.to_json_text())
        assert [SweepRow(**row) for row in parsed["rows"]] == result.rows

    def test_mixed_unlimited_and_finite_beam_levels_fail_before_any_cell(self, monkeypatch):
        monkeypatch.setattr("satchain.harness.run_batch", lambda *args, **kwargs: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match="beam_width levels cannot mix None"):
            run_taguchi(SimulationConfig(), d_levels=(1,), b_levels=(1, None), m_values=(3,), repetitions=1)

    def test_unlimited_beam_alone_sweeps(self):
        result = run_taguchi(SimulationConfig(), d_levels=(1,), b_levels=(None,), m_values=(3,), repetitions=1)
        assert [row.beam for row in result.rows] == [None]
        assert json.loads(result.to_json_text())["effects"]["beam"] == {"null": {"3": result.rows[0].mean_phi}}


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda config: run_batch(config, "pgra", seed=-1), id="run_batch"),
        pytest.param(lambda config: run_online(config, "pgra", seed=-1), id="run_online"),
        pytest.param(lambda config: run_taguchi(config, repetitions=1, seed=-1), id="run_taguchi"),
    ],
)
def test_negative_seed_fails_before_any_draw(run, monkeypatch):
    monkeypatch.setattr("satchain.harness.generate_requests", lambda *args, **kwargs: pytest.fail("a draw ran"))
    with pytest.raises(ValueError, match="seed must be >= 0, not -1"):
        run(SimulationConfig(requests=1, slots=1))


@pytest.mark.parametrize(
    "key, run",
    [
        pytest.param("beam_width", lambda config: run_batch(config, "viterbi", seed=0), id="run_batch-beam_width"),
        pytest.param("k_max", lambda config: run_batch(config, "pgra", seed=0), id="run_batch-k_max"),
        pytest.param("slots", lambda config: run_online(config, "pgra", seed=0), id="run_online-slots"),
    ],
)
def test_field_assigned_after_construction_fails_when_the_run_starts(key, run, monkeypatch):
    monkeypatch.setattr("satchain.harness.generate_requests", lambda *args, **kwargs: pytest.fail("a draw ran"))
    config = SimulationConfig(requests=3)
    setattr(config, key, 0)
    with pytest.raises(ValueError, match=f"{key} must be >= 1"):
        run(config)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runs_leave_no_cyclic_garbage(algorithm):
    # a reference cycle outlives its run until the collector finds it, which raises peak memory
    config = SimulationConfig(slots=3).with_nodes(12)
    gc.collect()
    gc.disable()
    try:
        run_batch(config, algorithm, seed=1)
        run_online(config, algorithm, seed=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestEmission:
    def _metrics(self):
        return [
            SlotMetrics(0, "pgra", 7, 3.25, 1.0, 0.01, 0.02, 0.9, 5),
            SlotMetrics(1, "pgra", 7, 2.5, 0.5, 0.015, 0.025, 0.95, 4),
        ]

    def test_csv_header_and_stability(self):
        text = emit_text(self._metrics(), "csv")
        assert text.splitlines()[0] == (
            "slot,algorithm,seed,phi,allocated_fraction,mean_bw,mean_power,mean_delay,iterations"
        )
        assert text.splitlines()[1] == "0,pgra,7,3.25,1.0,0.01,0.02,0.9,5"

    def test_json_round_trip(self):
        records = self._metrics()
        parsed = [SlotMetrics(**row) for row in json.loads(emit_text(records, "json"))]
        assert parsed == records

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError, match="nothing to emit"):
            emit_text([], "csv")

    def test_zero_request_run_still_emits_one_row(self):
        metrics = run_batch(SimulationConfig(requests=0), "pgra", seed=0)
        assert len(emit_text([metrics], "csv").splitlines()) == 2

    def test_bad_path_mentions_location(self, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            pytest.fail("a run started")

        for name in ("run_batch", "run_online", "run_taguchi"):
            monkeypatch.setattr(f"satchain.cli.{name}", no_run)
        for command in ("batch", "online", "taguchi"):
            with pytest.raises(SystemExit) as exited:
                main([command, "--out", "no/such/dir/file.csv"])
            assert exited.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: satchain {command}")
            assert err.splitlines()[-1].endswith(
                "--out: cannot write 'no/such/dir/file.csv': No such file or directory"
            )


class TestConfig:
    def test_json_round_trip(self):
        config = SimulationConfig(requests=17, beam_width=None, idle_charge="per_vnf")
        clone = SimulationConfig.from_json(config.to_json())
        assert clone == config

    def test_with_nodes(self):
        for total in (6, 9, 12, 15):
            config = SimulationConfig().with_nodes(total)
            assert len(config.build_graph().nodes) == total

    def test_rejects_inverted_requests_per_slot(self):
        with pytest.raises(ValueError, match="requests_per_slot"):
            SimulationConfig(requests_per_slot=(10, 5))

    def test_rejects_non_integer_requests_per_slot(self):
        with pytest.raises(ValueError, match="requests_per_slot"):
            SimulationConfig(requests_per_slot=(2.5, 5))

    def test_rejects_negative_request_count(self):
        with pytest.raises(ValueError, match="requests"):
            SimulationConfig(requests=-1)

    def test_rejects_negative_slot_count(self):
        with pytest.raises(ValueError, match="slots"):
            SimulationConfig(slots=-1)
        with pytest.raises(ValueError, match="slots must be >= 1"):
            SimulationConfig.from_json('{"slots": 0}')

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_paths", 0),
            ("beam_width", 0),
            ("k_max", 0),
            ("cpu", 0.0),
            ("memory", 0.0),
            ("p_idle", 500.0),
            ("t_idle_max", 0),
            ("t_off_min", 0),
            ("planes", 0),
            ("sats_per_plane", 0),
            ("intra_plane_km", 0.0),
            ("inter_plane_km", -400.0),
            ("link_bandwidth", 0.0),
        ],
    )
    def test_bad_derived_value_fails_at_construction_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            SimulationConfig(**{key: value})
        with pytest.raises(ValueError, match=key):
            SimulationConfig.from_json(json.dumps({key: value}))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"beam_width": "4"}, "beam_width must be int | None, not '4'"),
            ({"cpu": "112"}, "cpu must be float, not '112'"),
            ({"num_paths": True}, "num_paths must be int, not True"),
            ({"k_max": 2.5}, "k_max must be int, not 2.5"),
            ({"validate_each_step": "yes"}, "validate_each_step must be bool, not 'yes'"),
            ({"weights": {"bw": 1.0}}, "weights must be Weights"),
        ],
    )
    def test_mistyped_value_fails_at_construction_naming_the_field(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            SimulationConfig(**kwargs)
        assert str(raised.value).startswith(message)

    @pytest.mark.parametrize("key", ["beam", "mode", "epsilon"])
    def test_from_json_rejects_unknown_top_level_key(self, key):
        doc = json.loads(SimulationConfig().to_json())
        doc[key] = 2
        with pytest.raises(ValueError, match=f"'{key}' in the top level"):
            SimulationConfig.from_json(json.dumps(doc))

    def test_from_json_rejects_unknown_ranges_key(self):
        doc = json.loads(SimulationConfig().to_json())
        doc["ranges"]["gpu"] = [1, 2]
        with pytest.raises(ValueError, match="'gpu' in section 'ranges'"):
            SimulationConfig.from_json(json.dumps(doc))

    def test_from_json_rejects_unknown_weights_key(self):
        with pytest.raises(ValueError, match="'latency' in section 'weights'"):
            SimulationConfig.from_json('{"weights": {"bw": 0.5, "power": 0.5, "latency": 0.0}}')

    def test_from_json_takes_an_int_for_a_float_and_null_for_beam_width(self):
        assert SimulationConfig.from_json('{"cpu": 100, "beam_width": null}') == SimulationConfig(
            cpu=100.0, beam_width=None
        )

    def test_from_json_keeps_defaults_for_absent_keys(self):
        config = SimulationConfig.from_json('{"requests": 3, "ranges": {"cpu": [2, 3]}}')
        assert config == SimulationConfig(requests=3, ranges=replace(SimulationConfig().ranges, cpu=(2, 3)))


class TestCli:
    def test_batch_json_to_stdout(self, capsys):
        assert main(["batch", "--nodes", "6", "--requests", "3", "--seed", "1", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["algorithm"] == "pgra"

    def test_batch_flag_overrides_and_output_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(SimulationConfig(requests=2).to_json())
        out = tmp_path / "result.csv"
        code = main(
            [
                "batch",
                "--config",
                str(cfg_path),
                "--algorithm",
                "greedy",
                "--requests",
                "4",
                "--d",
                "2",
                "--beam",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert ",greedy," in lines[1]

    def test_online_rows_per_slot(self, tmp_path):
        out = tmp_path / "online.csv"
        code = main(
            ["online", "--nodes", "6", "--slots", "3", "--seed", "2", "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["batch", "--d", "0"], "num_paths must be >= 1", id="--d-num_paths"),
            pytest.param(["batch", "--beam", "0"], "beam_width must be >= 1", id="--beam-beam_width"),
            *(
                pytest.param(
                    [command, "--seed=-1"],
                    "argument --seed: expected a non-negative integer, not '-1'",
                    id=f"{command}-negative-seed",
                )
                for command in ("batch", "online", "taguchi", "check")
            ),
            pytest.param(
                ["batch", "--seed", "x"], "argument --seed: expected a non-negative integer, not 'x'", id="batch-text-seed"
            ),
            pytest.param(
                ["batch", "--config", "/nonexistent.json"],
                "--config: cannot read '/nonexistent.json': No such file or directory",
                id="batch-missing-config",
            ),
            pytest.param(
                ["online", "--config", "."], "--config: cannot read '.': Is a directory", id="online-directory-config"
            ),
            pytest.param(["online", "--slots", "0"], "slots must be >= 1", id="online-zero-slots"),
            # the sweep sets these itself, so taguchi does not take them
            *(
                pytest.param(["taguchi", flag, value], f"unrecognized arguments: {flag} {value}", id=f"taguchi{flag}")
                for flag, value in (("--algorithm", "greedy"), ("--requests", "5"), ("--d", "4"), ("--beam", "2"))
            ),
        ],
    )
    def test_bad_flag_value_is_a_usage_error(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr("satchain.checks.run_all", lambda seed: pytest.fail("a suite ran"))
        for name in ("run_batch", "run_online", "run_taguchi"):
            monkeypatch.setattr(f"satchain.cli.{name}", lambda *args, **kwargs: pytest.fail("a run started"))
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: satchain {argv[0]}")
        assert message in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "text, key",
        [
            ("5", "the top level"),
            ('{"planes": "3"}', "'planes'"),
            ('{"requests": "5"}', "'requests'"),
            ('{"requests": true}', "'requests'"),
            ('{"cpu": "x"}', "'cpu'"),
            ('{"k_max": "a"}', "'k_max'"),
            ('{"ranges": 5}', "'ranges'"),
            ('{"beam_width": 2.5}', "'beam_width'"),
            ('{"ranges": {"cpu": ["a", 3]}}', "ranges.cpu"),
            ('{"ranges": {"cpu": [5]}}', "ranges.cpu"),
            ('{"ranges": {"cpu": [2.5, 3]}}', "ranges.cpu"),
            ('{"ranges": {"cpu": [true, 3]}}', "ranges.cpu"),
            ('{"requests_per_slot": [true, 3]}', "requests_per_slot"),
            # out of range rather than mistyped: construction rejects it before any graph is built
            ('{"planes": 0}', "planes must be positive, not 0"),
        ],
    )
    def test_mistyped_config_value_is_a_usage_error_naming_the_key(self, text, key, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("satchain.cli.run_batch", lambda *args, **kwargs: pytest.fail("a run started"))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        with pytest.raises(SystemExit) as exited:
            main(["batch", "--config", str(cfg_path)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: satchain batch")
        assert key in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--d-levels", "0"], "num_paths must be >= 1"),
            (["--b-levels", "0"], "beam_width must be >= 1 (or None for unlimited)"),
            (["--d-levels", "1,2,0"], "num_paths must be >= 1"),
            (["--d-levels", "1,x"], "--d-levels takes comma-separated integers, not '1,x'"),
            (["--m-values=-1"], "requests must be >= 0"),
            (["--repetitions", "0"], "repetitions must be >= 1"),
        ],
    )
    def test_bad_sweep_flag_is_a_usage_error(self, flags, message, capsys, monkeypatch):
        monkeypatch.setattr("satchain.harness.run_batch", lambda *args, **kwargs: pytest.fail("a cell ran"))
        with pytest.raises(SystemExit) as exited:
            main(["taguchi", *flags])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: satchain taguchi")
        assert err.splitlines()[-1].endswith(message)

    def test_check_runs_property_suites(self, capsys):
        assert main(["check", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS potential-identity",
            "PASS nash-convergence",
            "PASS beam-monotonicity",
            "PASS feasibility-invariance",
            "PASS server-lifecycle",
        ]

    def test_taguchi_smoke(self, capsys):
        code = main(
            [
                "taguchi",
                "--d-levels", "1,2",
                "--b-levels", "1",
                "--m-values", "3",
                "--repetitions", "1",
                "--seed", "3",
                "--format", "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "number,d,beam,requests,mean_phi"
        assert len(out) == 3


class TestOutputDigest:
    """Byte-level pin of everything the library writes out.

    Covers the metrics CSV/JSON of batch and on-line runs for every algorithm
    at 6 and 12 nodes under both idle-charging rules, a small sweep table, the
    config JSON form, and the repr of a graph and of a drawn workload, which
    pins every field and float bit of both.  A refactor must leave the
    digest unchanged; a deliberate behaviour change updates it and says so.
    """

    DIGEST = "98906cdd228824a93e5473689b330be6cb9b21a610e6c8711f106d87abd2b035"
    SEEDS = {"pgra": (0,), "viterbi": (0, 1), "greedy": (0, 1, 2, 3)}

    def _texts(self):
        for nodes in (6, 12):
            for idle_charge in ("once", "per_vnf"):
                base = SimulationConfig(
                    idle_charge=idle_charge, requests=6, slots=3, requests_per_slot=(2, 4)
                ).with_nodes(nodes)
                graph = base.build_graph()
                for algorithm, seeds in self.SEEDS.items():
                    for seed in seeds:
                        batch = [run_batch(base, algorithm, seed, graph=graph)]
                        online = run_online(base, algorithm, seed, graph=graph)
                        for results in (batch, online):
                            yield emit_text(results, "csv")
                            yield emit_text(results, "json")
        sweep = run_taguchi(
            SimulationConfig(), d_levels=(1, 4), b_levels=(1, 2), m_values=(4,), repetitions=1, seed=2
        )
        yield sweep.to_csv_text()
        yield SimulationConfig().to_json()
        yield SimulationConfig(beam_width=None, idle_charge="per_vnf", requests_per_slot=(2, 3)).to_json()
        graph = SimulationConfig().build_graph()
        yield repr([(n.cpu, n.memory, n.power) for n in graph.nodes]) + repr(
            [(l.u, l.v, l.bandwidth, l.delay, l.distance) for l in graph.links]
        )
        yield repr(
            [
                (r.id, r.source, r.destination, r.vnfs, r.bandwidths, r.max_delay, r.arrival_slot, r.duration_slots)
                for r in generate_requests(5, graph, rng_seed=3, d=4)
            ]
        )

    def test_digest_is_pinned(self):
        digest = hashlib.sha256()
        for text in self._texts():
            digest.update(text.encode())
            digest.update(b"\x00")
        assert digest.hexdigest() == self.DIGEST

    TIMELINE_DIGEST = "47a7e0fd061a5b538367140b2b6214915ec93562fbddf42b0d84b5c5fedf2cd5"

    def _timelines(self):
        """`ServerFleet.timeline` of on-line runs driven slot by slot as
        `run_online` drives them, at whole and fractional node capacities."""
        for nodes in (6, 12):
            for cpu, memory in ((112.0, 192.0), (40.3, 77.7)):
                for idle_charge in ("once", "per_vnf"):
                    config = SimulationConfig(
                        cpu=cpu, memory=memory, idle_charge=idle_charge, slots=6, requests_per_slot=(2, 5)
                    ).with_nodes(nodes)
                    graph = config.build_graph()
                    for algorithm in ALGORITHMS:
                        sim = OnlineSimulation(config, graph)
                        for slot in range(config.slots):
                            count = arrival_count(1, slot, config.requests_per_slot)
                            arrivals = generate_requests(
                                count, graph, config.ranges, 1, slot=slot, d=config.num_paths, start_id=sim.next_id
                            )
                            sim.next_id += count
                            sim.step(slot, arrivals, algorithm, 1)
                        yield repr(sim.fleet.timeline)

    def test_fleet_timeline_is_pinned(self):
        digest = hashlib.sha256()
        for text in self._timelines():
            digest.update(text.encode())
            digest.update(b"\x00")
        assert digest.hexdigest() == self.TIMELINE_DIGEST
