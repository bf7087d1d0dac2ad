"""The dynamic-networks subsystem: mobility, obstacles, energy.

Covers the model registry and its determinism contract, the
position-update/invalidation pipeline through the channel, obstacle
shadowing geometry, battery accounting through the fault path, the
spec-level mobility axis, and scalar<->vectorized parity on a moving
mesh.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_experiment, run_protocol
from repro.experiments.scenarios import (
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.experiments.spec import ExperimentSpec, SpecError
from repro.mobility.config import EnergySpec, MobilitySpec
from repro.mobility.energy import EnergyModel
from repro.mobility.models import (
    build_mobility_model,
    mobility_model_by_name,
    mobility_model_names,
)
from repro.net.network import Network, NetworkConfig
from repro.net.topology import Position, random_topology
from repro.phy.obstacles import (
    Obstacle,
    ObstacleShadowingPropagation,
    ObstacleSpec,
)
from repro.phy.propagation import TwoRayGroundPropagation

MOVING_MODELS = ("random-waypoint", "gauss-markov", "waypoint-swarm")


def tiny_config(**overrides) -> SimulationScenarioConfig:
    defaults = dict(
        num_nodes=10,
        area_width_m=500.0,
        area_height_m=500.0,
        num_groups=1,
        members_per_group=3,
        rate_pps=10.0,
        duration_s=8.0,
        warmup_s=2.0,
    )
    defaults.update(overrides)
    return SimulationScenarioConfig(**defaults)


# ----------------------------------------------------------------------
# Registry and spec validation


class TestRegistry:
    def test_all_models_registered(self):
        assert set(mobility_model_names()) >= {
            "static", "random-waypoint", "gauss-markov", "waypoint-swarm",
        }

    def test_unknown_model_suggests_closest(self):
        with pytest.raises(ValueError, match="did you mean 'random-waypoint'"):
            mobility_model_by_name("random-waypont")

    def test_mobility_spec_rejects_typo_at_construction(self):
        with pytest.raises(ValueError, match="unknown mobility model"):
            MobilitySpec(model="guass-markov")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(update_interval_s=0.0),
            dict(speed_min_mps=-1.0),
            dict(speed_min_mps=20.0, speed_max_mps=10.0),
            dict(pause_s=-0.5),
            dict(alpha=1.0),
            dict(swarm_size=0),
            dict(swarm_radius_m=-1.0),
            dict(update_interval_s=float("nan")),
        ],
    )
    def test_mobility_spec_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MobilitySpec(model="random-waypoint", **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(enabled=True, initial_j=0.0),
            dict(tx_j_per_byte=-1e-6),
            dict(accounting_interval_s=0.0),
            dict(idle_w=float("inf")),
        ],
    )
    def test_energy_spec_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EnergySpec(**kwargs)

    def test_network_config_rejects_typo_backend_with_suggestion(self):
        with pytest.raises(ValueError, match="did you mean 'vectorized'"):
            NetworkConfig(phy_backend="vectorised")

    def test_scenario_config_validates_mobility_eagerly(self):
        with pytest.raises(ValueError, match="unknown mobility model"):
            SimulationScenarioConfig(mobility=MobilitySpec(model="rwp"))

    def test_spec_file_with_bad_model_fails_at_load(self):
        spec = ExperimentSpec(name="x", protocols=("odmrp",))
        data = spec.to_dict()
        data["config"]["mobility"] = {"model": "warp-drive"}
        with pytest.raises(SpecError, match="unknown mobility model"):
            ExperimentSpec.from_dict(data)

    def test_spec_mobility_axis_validates_names(self):
        spec = ExperimentSpec(
            name="x", protocols=("odmrp",), mobility_models=("static", "rwp")
        )
        with pytest.raises(SpecError, match="unknown mobility model"):
            spec.validate()


# ----------------------------------------------------------------------
# Model trajectories: in-bounds and seed-deterministic (property-based)


def _trajectory(model_name, seed, width, height, num_nodes, ticks, dt):
    rng = random.Random(seed)
    placement = [
        Position(rng.uniform(0, width), rng.uniform(0, height))
        for _ in range(num_nodes)
    ]
    spec = MobilitySpec(
        model=model_name,
        speed_min_mps=1.0,
        speed_max_mps=25.0,
        pause_s=0.5,
        swarm_size=3,
        swarm_radius_m=40.0,
    )
    model = build_mobility_model(
        spec, width, height, placement, random.Random(seed + 1)
    )
    history = []
    for tick in range(1, ticks + 1):
        model.advance(tick * dt)
        history.append(list(model.positions))
    return history


class TestModelProperties:
    @settings(max_examples=30)
    @given(
        model_name=st.sampled_from(MOVING_MODELS),
        seed=st.integers(min_value=0, max_value=2**31),
        width=st.floats(min_value=50.0, max_value=1500.0),
        height=st.floats(min_value=50.0, max_value=1500.0),
        num_nodes=st.integers(min_value=1, max_value=12),
        dt=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_positions_stay_in_arena(
        self, model_name, seed, width, height, num_nodes, dt
    ):
        history = _trajectory(
            model_name, seed, width, height, num_nodes, ticks=10, dt=dt
        )
        for snapshot in history:
            for position in snapshot:
                assert 0.0 <= position.x <= width
                assert 0.0 <= position.y <= height

    @settings(max_examples=15)
    @given(
        model_name=st.sampled_from(MOVING_MODELS),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_trajectories_are_seed_deterministic(self, model_name, seed):
        first = _trajectory(model_name, seed, 600.0, 400.0, 8, ticks=8, dt=1.0)
        second = _trajectory(model_name, seed, 600.0, 400.0, 8, ticks=8, dt=1.0)
        assert first == second

    def test_moving_models_actually_move(self):
        for model_name in MOVING_MODELS:
            history = _trajectory(
                model_name, 7, 600.0, 600.0, 6, ticks=5, dt=1.0
            )
            assert history[0] != history[-1], model_name

    def test_static_model_never_moves_and_never_draws(self):
        placement = [Position(10.0, 10.0), Position(20.0, 20.0)]
        rng = random.Random(3)
        state_before = rng.getstate()
        model = build_mobility_model(
            MobilitySpec(), 100.0, 100.0, placement, rng
        )
        for tick in range(1, 5):
            assert model.advance(float(tick)) == []
        assert rng.getstate() == state_before


# ----------------------------------------------------------------------
# The position-update / invalidation pipeline


def _apply_random_moves(network, rng, width, height, count):
    for _ in range(count):
        node = rng.choice(network.nodes)
        node.set_position(
            Position(rng.uniform(0, width), rng.uniform(0, height))
        )
    network.channel.invalidate_topology()


class TestTopologyInvalidation:
    def test_connectivity_map_updates_after_invalidate(self):
        positions = [Position(0.0, 0.0), Position(100.0, 0.0),
                     Position(200.0, 0.0)]
        network = Network(positions, seed=1)
        assert 1 in network.channel.connectivity_map()[0]
        # The memo without invalidation is the documented staleness
        # hazard: set_position alone must not silently rebuild it.
        network.nodes[1].set_position(Position(5000.0, 5000.0))
        assert 1 in network.channel.connectivity_map()[0]
        network.channel.invalidate_topology()
        after = network.channel.connectivity_map()
        assert 1 not in after[0]
        assert after[1] == []

    def test_invalidate_before_finalize_is_an_error(self):
        from repro.net.channel import ChannelError, WirelessChannel
        from repro.sim.engine import Simulator

        channel = WirelessChannel(Simulator(seed=1))
        with pytest.raises(ChannelError, match="finalize"):
            channel.invalidate_topology()

    def test_incremental_equals_fresh_rebuild_small_mesh(self):
        width = height = 800.0
        rng = random.Random(11)
        positions = random_topology(20, width, height,
                                    rng=random.Random(5))
        network = Network(positions, seed=1)
        _apply_random_moves(network, rng, width, height, count=30)
        fresh = Network(
            [node.position for node in network.nodes], seed=1
        )
        assert (
            network.channel.connectivity_map()
            == fresh.channel.connectivity_map()
        )

    @settings(max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        moves=st.integers(min_value=1, max_value=25),
    )
    def test_grid_equals_brute_under_random_motion(self, seed, moves):
        import repro.net.channel as channel_mod

        width = height = 700.0
        positions = random_topology(14, width, height,
                                    rng=random.Random(seed))
        # Force the grid path on one network, the brute scan on its
        # twin; after identical motion their audibility must match
        # bit-for-bit (the grid is a candidate superset, never a
        # filter).  MonkeyPatch as a context manager: Hypothesis reuses
        # function-scoped fixtures across examples.
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(channel_mod, "GRID_MIN_NODES", 1)
            gridded = Network(positions, seed=1)
            assert gridded.channel._grid is not None
            patcher.setattr(channel_mod, "GRID_MIN_NODES", 10**9)
            brute = Network(positions, seed=1)
            assert brute.channel._grid is None

        rng_a = random.Random(seed + 1)
        rng_b = random.Random(seed + 1)
        _apply_random_moves(gridded, rng_a, width, height, moves)
        _apply_random_moves(brute, rng_b, width, height, moves)
        for node_a, node_b in zip(gridded.nodes, brute.nodes):
            assert node_a.position == node_b.position
        assert (
            gridded.channel.connectivity_map()
            == brute.channel.connectivity_map()
        )
        for node in gridded.nodes:
            assert [
                (receiver.node_id, mean, thr)
                for receiver, mean, thr
                in gridded.channel._audible[node.node_id]
            ] == [
                (receiver.node_id, mean, thr)
                for receiver, mean, thr
                in brute.channel._audible[node.node_id]
            ]


# ----------------------------------------------------------------------
# End-to-end moving scenarios


class TestMovingScenarios:
    @pytest.mark.parametrize("model", MOVING_MODELS)
    def test_moving_run_is_seed_deterministic(self, model):
        config = tiny_config(
            mobility=MobilitySpec(model=model, update_interval_s=1.0,
                                  speed_max_mps=20.0)
        )
        first = run_protocol("odmrp", config)
        second = run_protocol("odmrp", config)
        assert first.error is None, first.error
        assert first == second
        assert first.counters.get("mobility.moves", 0) > 0
        assert first.counters.get("mobility.distance_m", 0) > 0

    def test_static_default_emits_no_mobility_or_energy_counters(self):
        result = run_protocol("odmrp", tiny_config())
        assert result.error is None, result.error
        assert not any(
            name.startswith(("mobility.", "energy."))
            for name in result.counters
        )

    def test_scalar_and_vectorized_agree_on_moving_mesh(self):
        pytest.importorskip("numpy")
        results = {}
        for backend in ("scalar", "vectorized"):
            config = tiny_config(
                num_nodes=16,
                duration_s=10.0,
                mobility=MobilitySpec(
                    model="random-waypoint",
                    update_interval_s=0.5,
                    speed_min_mps=5.0,
                    speed_max_mps=30.0,
                ),
            )
            config = dataclasses.replace(
                config,
                network=dataclasses.replace(
                    config.network, phy_backend=backend
                ),
            )
            results[backend] = run_protocol("spp", config)
        assert results["scalar"].error is None, results["scalar"].error
        assert results["scalar"] == results["vectorized"]
        # Nodes at 30 m/s for 10 s churn audibility; a run where nothing
        # moved would not exercise the vector-state archive at all.
        assert results["scalar"].counters["mobility.moves"] > 0

    def test_monitors_pass_on_moving_scenario(self):
        from repro.validation.fuzzing import run_with_invariants

        spec = ExperimentSpec(
            name="moving-monitored",
            protocols=("odmrp",),
            seeds=(1,),
            config=tiny_config(
                mobility=MobilitySpec(model="gauss-markov",
                                      update_interval_s=1.0)
            ),
        )
        results = run_with_invariants(
            spec,
            monitors=("rng-isolation", "forwarding-state",
                      "channel-conservation"),
        )
        assert all(result.error is None for result in results)

    def test_mobility_telemetry_probes_record(self, tmp_path):
        from repro.telemetry.hub import TelemetryConfig

        config = tiny_config(
            mobility=MobilitySpec(model="random-waypoint"),
            energy=EnergySpec(enabled=True, initial_j=50.0),
            telemetry=TelemetryConfig(
                enabled=True, export_dir=str(tmp_path)
            ),
        )
        scenario = build_simulation_scenario("odmrp", config)
        scenario.run()
        names = {
            instrument.name
            for instrument in scenario.telemetry.instruments()
        }
        assert {"mobility.speed_mean", "mobility.update_rate",
                "energy.remaining_j", "energy.alive_nodes"} <= names


# ----------------------------------------------------------------------
# Energy accounting


class TestEnergy:
    def _idle_network(self):
        # Two nodes far outside radio range: no traffic, so the battery
        # drains by the idle baseline alone and death time is exact.
        return Network(
            [Position(0.0, 0.0), Position(50000.0, 50000.0)], seed=1
        )

    def test_idle_drain_kills_node_at_predictable_tick(self):
        network = self._idle_network()
        spec = EnergySpec(enabled=True, initial_j=0.045, idle_w=0.01,
                          accounting_interval_s=1.0)
        model = EnergyModel(spec, network)
        for tick in range(1, 4):
            network.sim.run(until=float(tick))
            model.step()
            assert network.nodes[0].active, f"died early at t={tick}"
        network.sim.run(until=5.0)
        model.step()  # cumulative drain 0.05 J > 0.045 J budget
        node = network.nodes[0]
        assert not node.active
        assert model.remaining_j(0) == 0.0
        assert node.counters.get("energy.depleted") == 1
        # Consumed energy is capped at the budget: never more out than in.
        assert node.counters.get("energy.consumed_j") == pytest.approx(0.045)
        assert model.alive_count() == 0

    def test_depleted_node_stays_dead_after_fault_revival(self):
        network = self._idle_network()
        spec = EnergySpec(enabled=True, initial_j=0.01, idle_w=0.01,
                          accounting_interval_s=1.0)
        model = EnergyModel(spec, network)
        network.sim.run(until=2.0)
        model.step()
        node = network.nodes[0]
        assert not node.active
        node.set_active(True)  # a fault plan's recovery event
        network.sim.run(until=3.0)
        model.step()
        assert not node.active, "dead batteries must stay dead"

    def test_energy_death_churns_protocol_state_deterministically(self):
        config = tiny_config(
            duration_s=10.0,
            energy=EnergySpec(enabled=True, initial_j=0.06, idle_w=0.01,
                              accounting_interval_s=1.0),
        )
        first = run_protocol("odmrp", config)
        second = run_protocol("odmrp", config)
        assert first.error is None, first.error
        assert first == second
        assert first.counters.get("energy.depleted") == config.num_nodes


# ----------------------------------------------------------------------
# Obstacle shadowing


class TestObstacles:
    def test_wall_crossing_counts(self):
        box = Obstacle(10.0, 10.0, 20.0, 20.0)
        through = (Position(0.0, 15.0), Position(30.0, 15.0))
        one_end_inside = (Position(15.0, 15.0), Position(30.0, 15.0))
        both_inside = (Position(12.0, 12.0), Position(18.0, 18.0))
        miss = (Position(0.0, 0.0), Position(30.0, 0.0))
        diagonal_miss = (Position(0.0, 25.0), Position(5.0, 0.0))
        assert box.wall_crossings(*through) == 2
        assert box.wall_crossings(*one_end_inside) == 1
        assert box.wall_crossings(*one_end_inside[::-1]) == 1
        assert box.wall_crossings(*both_inside) == 0
        assert box.wall_crossings(*miss) == 0
        assert box.wall_crossings(*diagonal_miss) == 0

    def test_shadowing_attenuates_per_crossing(self):
        base = TwoRayGroundPropagation()
        wall = Obstacle(100.0, -50.0, 120.0, 50.0, attenuation_db=10.0)
        model = ObstacleShadowingPropagation(base, (wall,))
        a, b = Position(0.0, 0.0), Position(200.0, 0.0)
        open_power = base.rx_power_mw_between(100.0, a, b)
        shadowed = model.rx_power_mw_between(100.0, a, b)
        # Straight through = two walls = 20 dB = factor 100.
        assert shadowed == pytest.approx(open_power / 100.0)
        # The distance-only envelope and range bound ignore obstacles.
        assert model.rx_power_mw(100.0, 200.0) == base.rx_power_mw(100.0, 200.0)
        assert model.max_range_for_power(100.0, 1e-9) == pytest.approx(
            base.max_range_for_power(100.0, 1e-9)
        )

    def test_obstacle_spec_rejects_out_of_arena(self):
        spec = ObstacleSpec(
            obstacles=(Obstacle(2000.0, 2000.0, 2100.0, 2100.0),)
        )
        with pytest.raises(ValueError, match="outside"):
            spec.validate_for(1000.0, 1000.0)

    def test_wall_severs_an_otherwise_audible_link(self):
        # Two radios 200 m apart (inside the 250 m nominal range) with a
        # thick 40 dB building on the line of sight between them.
        positions = [Position(150.0, 250.0), Position(350.0, 250.0)]
        wall = (Obstacle(200.0, 0.0, 260.0, 500.0, attenuation_db=40.0),)
        open_net = Network(positions, seed=1)
        blocked_net = Network(
            positions,
            seed=1,
            config=NetworkConfig(
                propagation=ObstacleShadowingPropagation(
                    TwoRayGroundPropagation(), wall
                )
            ),
        )
        assert open_net.channel.connectivity_map() == {0: [1], 1: [0]}
        assert blocked_net.channel.connectivity_map() == {0: [], 1: []}

    def test_obstacle_config_thins_scenario_connectivity(self):
        # Wired through SimulationScenarioConfig.obstacles: shadowing can
        # only remove edges relative to the open-space build.
        blocking = ObstacleSpec(
            obstacles=(Obstacle(150.0, 0.0, 350.0, 500.0,
                                attenuation_db=40.0),)
        )
        open_map = build_simulation_scenario(
            "odmrp", tiny_config()
        ).network.channel.connectivity_map()
        blocked_map = build_simulation_scenario(
            "odmrp", tiny_config(obstacles=blocking)
        ).network.channel.connectivity_map()
        open_edges = {
            (i, j) for i, out in open_map.items() for j in out
        }
        blocked_edges = {
            (i, j) for i, out in blocked_map.items() for j in out
        }
        assert blocked_edges <= open_edges
        assert blocked_edges < open_edges  # the 200 m slab cuts something


# ----------------------------------------------------------------------
# Spec axis, serialization, and reporting labels


class TestSpecAxis:
    def _full_spec(self):
        return ExperimentSpec(
            name="dyn",
            protocols=("odmrp",),
            seeds=(1, 2),
            mobility_models=("static", "random-waypoint"),
            config=tiny_config(
                mobility=MobilitySpec(model="gauss-markov", pause_s=1.0),
                obstacles=ObstacleSpec(
                    obstacles=(
                        Obstacle(10.0, 10.0, 60.0, 60.0, attenuation_db=6.0),
                        Obstacle(100.0, 200.0, 180.0, 260.0),
                    )
                ),
                energy=EnergySpec(enabled=True, initial_j=20.0),
            ),
        )

    def test_round_trips_through_toml_and_json(self):
        spec = self._full_spec()
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_total_runs_and_describe_include_axis(self):
        spec = self._full_spec()
        assert spec.total_runs == 4
        plan = spec.describe()
        assert "2 mobility models" in plan
        assert "random-waypoint" in plan

    def test_defaults_serialize_inert_and_reload(self):
        # Inert defaults round-trip (and old spec files with none of the
        # dynamic keys keep loading with the inert defaults).
        spec = ExperimentSpec(name="plain")
        data = spec.to_dict()
        assert "mobility_models" not in data
        assert data["config"]["mobility"]["model"] == "static"
        assert data["config"]["obstacles"]["obstacles"] == []
        assert data["config"]["energy"]["enabled"] is False
        assert ExperimentSpec.from_dict(data) == spec
        legacy = dict(data)
        legacy["config"] = {
            k: v for k, v in data["config"].items()
            if k not in ("mobility", "obstacles", "energy")
        }
        assert ExperimentSpec.from_dict(legacy) == spec

    def test_run_experiment_labels_cells(self):
        spec = ExperimentSpec(
            name="cells",
            protocols=("odmrp",),
            seeds=(1,),
            mobility_models=("static", "random-waypoint"),
            config=tiny_config(duration_s=6.0),
        )
        results = run_experiment(spec)
        assert [result.protocol for result in results] == [
            "odmrp@static", "odmrp@random-waypoint",
        ]
        assert all(result.error is None for result in results)
        static, moving = results
        assert "mobility.moves" not in static.counters
        assert moving.counters.get("mobility.moves", 0) > 0

    def test_pool_matches_serial_on_moving_mesh(self):
        config = tiny_config(
            duration_s=6.0,
            mobility=MobilitySpec(model="random-waypoint",
                                  update_interval_s=1.0),
        )
        spec = ExperimentSpec(protocols=("odmrp",), seeds=(1, 2),
                              config=config)
        serial = run_experiment(spec)
        pooled = run_experiment(dataclasses.replace(spec, jobs=2))
        assert serial == pooled

    def test_report_renders_labeled_cells(self):
        from repro.experiments.report import render_report
        from repro.experiments.results import RunResult

        def row(name):
            return RunResult(
                protocol=name, topology_seed=1, duration_s=10.0,
                offered_packets=100, expected_deliveries=300,
                delivered_packets=250, delivered_bytes=128000,
                mean_delay_s=0.01, probe_bytes=0.0, counters={},
            )

        report = render_report(
            [row("odmrp@static"), row("odmrp@random-waypoint")],
            title="mobility cells",
        )
        assert "odmrp@static" in report
        assert "odmrp@random-waypoint" in report


# ----------------------------------------------------------------------
# Fuzzer integration


class TestFuzzerIntegration:
    def test_fuzzer_draws_moving_and_static_specs(self):
        from repro.validation.fuzzing import random_spec

        models = {
            random_spec(index).config.mobility.model for index in range(24)
        }
        assert "static" in models
        assert models & {"random-waypoint", "gauss-markov"}
        assert any(
            random_spec(index).config.energy.enabled for index in range(24)
        )
        for index in range(8):
            random_spec(index).validate()


@pytest.mark.fuzz
class TestMovingDifferential:
    """The full differential oracle on a moving mesh (``-m fuzz``)."""

    def test_moving_spec_agrees_across_every_path(self, tmp_path):
        from repro.validation.fuzzing import (
            differential_check,
            moving_validation_spec,
        )

        spec = dataclasses.replace(
            moving_validation_spec(), protocols=("odmrp",)
        )
        errors = differential_check(spec, jobs=2, work_dir=str(tmp_path))
        assert errors == [], "\n".join(errors)

    def test_moving_mini_sweep_passes_invariants(self):
        from repro.validation.fuzzing import (
            moving_validation_spec,
            run_with_invariants,
        )

        results = run_with_invariants(moving_validation_spec())
        assert all(result.error is None for result in results)
