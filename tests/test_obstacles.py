"""Obstacle shadowing: wall-crossing geometry, per-wall attenuation, and
its wiring through ``SimulationScenarioConfig.obstacles``; plus the
network config's backend-name check.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import (
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.net.network import Network, NetworkConfig
from repro.net.topology import Position
from repro.phy.obstacles import (
    Obstacle,
    ObstacleShadowingPropagation,
    ObstacleSpec,
)
from repro.phy.propagation import TwoRayGroundPropagation


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


def test_network_config_rejects_typo_backend_with_suggestion():
    with pytest.raises(ValueError, match="did you mean 'vectorized'"):
        NetworkConfig(phy_backend="vectorised")


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
