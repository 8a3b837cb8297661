"""Tests for the environment, power meter and scenarios."""

import warnings

import numpy as np
import pytest

from repro.telemetry import runtime as telemetry
from repro.testbed.config import ControlPolicy, CostWeights, TestbedConfig
from repro.testbed.env import EdgeAIEnvironment
from repro.testbed.powermeter import ObservationNoise, PowerMeter
from repro.testbed.scenarios import (
    dynamic_scenario,
    heterogeneous_scenario,
    static_scenario,
)
from repro.ran.channel import constant_trace


class TestPowerMeter:
    def test_zero_noise_exact(self):
        assert PowerMeter(noise_rel=0.0).read(100.0) == 100.0

    def test_noise_magnitude(self):
        meter = PowerMeter(noise_rel=0.05, rng=0)
        readings = [meter.read(100.0) for _ in range(2000)]
        assert abs(np.mean(readings) - 100.0) < 1.0
        assert 3.0 < np.std(readings) < 7.0

    def test_never_negative(self):
        meter = PowerMeter(noise_rel=5.0, rng=0)
        assert all(meter.read(0.1) >= 0 for _ in range(100))

    def test_average_tighter_than_single(self):
        meter = PowerMeter(noise_rel=0.1, rng=1)
        averages = [meter.read_average(100.0, 64) for _ in range(100)]
        singles = [meter.read(100.0) for _ in range(100)]
        assert np.std(averages) < np.std(singles)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerMeter().read(-1.0)


class TestObservationNoise:
    def test_delay_noise_unbiased(self):
        noise = ObservationNoise(delay_noise_rel=0.05, rng=0)
        samples = [noise.noisy_delay(0.4) for _ in range(3000)]
        assert abs(np.mean(samples) - 0.4) < 0.005

    def test_infinite_delay_passthrough(self):
        noise = ObservationNoise(rng=0)
        assert noise.noisy_delay(float("inf")) == float("inf")

    def test_map_clipping(self):
        noise = ObservationNoise(map_noise_std=0.5, rng=0)
        values = [noise.noisy_map(0.95) for _ in range(200)]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_map_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ObservationNoise().noisy_map(1.5)


class TestEnvironment:
    def test_observe_context_matches_users(self, static_env):
        context = static_env.observe_context()
        assert context.n_users == static_env.n_users == 1

    def test_evaluate_noise_free_deterministic(self, static_env, max_policy):
        a = static_env.evaluate(max_policy, snrs_db=[35.0], noisy=False)
        b = static_env.evaluate(max_policy, snrs_db=[35.0], noisy=False)
        assert a.delay_s == b.delay_s
        assert a.server_power_w == b.server_power_w

    def test_noisy_evaluate_varies(self, static_env, max_policy):
        a = static_env.evaluate(max_policy, snrs_db=[35.0], noisy=True)
        b = static_env.evaluate(max_policy, snrs_db=[35.0], noisy=True)
        assert a.delay_s != b.delay_s

    def test_step_advances_channel(self, testbed_config):
        env = dynamic_scenario(config=testbed_config, rng=0)
        before = env.current_snrs_db
        env.step(ControlPolicy.max_resources())
        after = env.current_snrs_db
        assert before != after

    def test_same_seed_same_trajectory(self, testbed_config):
        def run(seed):
            env = static_scenario(rng=seed, config=testbed_config)
            return [
                env.step(ControlPolicy.max_resources()).delay_s
                for _ in range(5)
            ]
        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_detector_mode_produces_plausible_map(self, testbed_config):
        env = static_scenario(rng=0, config=testbed_config, map_mode="detector")
        obs = env.step(ControlPolicy.max_resources())
        assert 0.4 < obs.map_score < 0.85

    def test_invalid_map_mode(self, testbed_config):
        with pytest.raises(ValueError):
            EdgeAIEnvironment([constant_trace(30.0)], map_mode="bogus")

    def test_no_channels_rejected(self):
        with pytest.raises(ValueError):
            EdgeAIEnvironment([])

    def test_too_many_users_rejected(self):
        config = TestbedConfig(max_users=2)
        with pytest.raises(ValueError):
            EdgeAIEnvironment(
                [constant_trace(30.0) for _ in range(3)], config=config
            )

    def test_observation_fields_populated(self, static_env, max_policy):
        obs = static_env.evaluate(max_policy)
        assert obs.delay_s > 0
        assert 0 <= obs.map_score <= 1
        assert obs.server_power_w > 0
        assert obs.bs_power_w > 0
        assert len(obs.per_user_delay_s) == 1


class TestScenarios:
    def test_static_snr_near_mean(self, testbed_config):
        env = static_scenario(mean_snr_db=30.0, rng=0, config=testbed_config)
        assert abs(env.current_snrs_db[0] - 30.0) < 5.0

    def test_heterogeneous_snr_ladder(self, testbed_config):
        env = heterogeneous_scenario(n_users=4, rng=0, config=testbed_config)
        snrs = env.current_snrs_db
        assert len(snrs) == 4
        # Mean SNRs decay by 20% per user; realised samples keep order
        # approximately (allow jitter).
        assert snrs[0] > snrs[-1]

    def test_dynamic_scenario_sweeps(self, testbed_config):
        env = dynamic_scenario(config=testbed_config, rng=0, length=100)
        snrs = []
        for _ in range(100):
            snrs.append(env.current_snrs_db[0])
            env.step(ControlPolicy.max_resources())
        assert max(snrs) - min(snrs) > 20.0

    def test_invalid_user_counts(self):
        with pytest.raises(ValueError):
            static_scenario(n_users=0)
        with pytest.raises(ValueError):
            heterogeneous_scenario(n_users=0)


KPI_FIELDS = ("delay_s", "map_score", "server_power_w", "bs_power_w")


def grid_env(n_users, load_multiplier=1.0, n_levels=3, seed=0):
    """Environment with ``n_users`` fixed SNRs, one below CQI 1."""
    rng = np.random.default_rng(seed)
    snrs = [-12.0] + list(rng.uniform(0.0, 38.0, size=n_users - 1))
    config = TestbedConfig(n_levels=n_levels, load_multiplier=load_multiplier)
    env = EdgeAIEnvironment([constant_trace(s) for s in snrs], config=config, rng=0)
    return env, snrs


def probe_grid(config, seed=0):
    """The config's grid plus off-grid rows and a zero-airtime dead row."""
    off_grid = np.random.default_rng(seed).random((12, 4))
    dead = [[0.7, 0.0, 0.4, 0.9]]
    return np.vstack([config.control_grid(), off_grid, dead])


def assert_grid_matches_evaluate(env, grid, snrs):
    kpis = env.evaluate_grid(grid, snrs_db=snrs)
    for i, row in enumerate(grid):
        obs = env.evaluate(ControlPolicy.from_array(row), snrs_db=snrs, noisy=False)
        for field in KPI_FIELDS:
            assert getattr(kpis, field)[i] == getattr(obs, field), (i, field)
    return kpis


class TestEvaluateGrid:
    @pytest.mark.parametrize("n_users", range(1, 9))
    @pytest.mark.parametrize("load_multiplier", [1.0, 10.0])
    def test_bitwise_equal_to_evaluate(self, n_users, load_multiplier):
        env, snrs = grid_env(n_users, load_multiplier, seed=n_users)
        grid = probe_grid(env.config, seed=n_users)
        kpis = assert_grid_matches_evaluate(env, grid, snrs)
        assert kpis.delay_s[-1] == np.inf
        assert np.all(np.isfinite(kpis.delay_s[:-1]))

    @pytest.mark.parametrize("n_users", [1, 3, 8])
    def test_no_runtime_warnings(self, n_users):
        env, snrs = grid_env(n_users, seed=n_users)
        grid = probe_grid(env.config, seed=n_users)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_grid_matches_evaluate(env, grid, snrs)

    def test_defaults_to_current_snrs(self):
        env, _ = grid_env(2)
        grid = env.config.control_grid()
        a = env.evaluate_grid(grid)
        b = env.evaluate_grid(grid, snrs_db=env.current_snrs_db)
        for field in KPI_FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_beyond_exact_mva_falls_back_to_scalar_rows(self):
        env, snrs = grid_env(3)
        env.service_model.exact_mva_max_users = 2
        assert_grid_matches_evaluate(env, probe_grid(env.config), snrs)

    def test_cost_matches_cost_weights(self):
        env, snrs = grid_env(2)
        weights = CostWeights(1.5, 7.0)
        grid = env.config.control_grid()
        costs = env.evaluate_grid(grid, snrs_db=snrs).cost(weights)
        for i, row in enumerate(grid):
            obs = env.evaluate(ControlPolicy.from_array(row), snrs_db=snrs)
            assert costs[i] == weights.cost(obs.server_power_w, obs.bs_power_w)

    def test_one_span_per_pass(self):
        env, snrs = grid_env(2)
        with telemetry.record() as sink:
            env.evaluate_grid(env.config.control_grid(), snrs_db=snrs)
        assert [s["name"] for s in sink.spans] == ["env.evaluate_grid"]
        assert sink.spans[0]["attrs"] == {"rows": 81, "users": 2}
        assert "ran.mac.allocations" not in sink.metrics[-1]["counters"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, -0.25])
    def test_invalid_control_names_row_and_column(self, bad):
        env, _ = grid_env(1)
        grid = env.config.control_grid()
        grid[7, 2] = bad
        with pytest.raises(ValueError, match=r"row 7, column 2 \(gpu_speed\)"):
            env.evaluate_grid(grid)

    def test_wrong_shape_rejected(self):
        env, _ = grid_env(1)
        with pytest.raises(ValueError, match="must be"):
            env.evaluate_grid(np.zeros((5, 3)))
