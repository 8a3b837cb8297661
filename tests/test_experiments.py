"""Tests for the experiment harness (runner, recorder, profiling)."""

import numpy as np
import pytest

from repro.core import EdgeBOL
from repro.experiments import (
    ConstraintSchedule,
    RunLog,
    render_runlog,
    run_agent,
    run_repetitions,
    write_csv,
)
from repro.experiments import profiling
from repro.experiments.convergence import (
    ConvergenceSetting,
    convergence_time,
    run_convergence,
)
from repro.experiments.runner import band
from repro.testbed.config import (
    ControlPolicy,
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
)
from repro.testbed.env import TestbedObservation
from repro.testbed.scenarios import static_scenario


def observation(delay=0.3, map_score=0.6):
    return TestbedObservation(
        delay_s=delay, map_score=map_score, server_power_w=100.0,
        bs_power_w=5.0, gpu_delay_s=0.1, gpu_utilization=0.3,
        total_rate_hz=3.0, mean_mcs=20.0, offered_load_bps=1e6,
        per_user_delay_s=(delay,), per_user_rate_hz=(3.0,),
    )


class TestRunLog:
    def make_log(self, n=10):
        log = RunLog()
        for i in range(n):
            log.append(
                cost=100.0 - i,
                policy=ControlPolicy.max_resources(),
                observation=observation(),
                d_max_s=0.4,
                rho_min=0.5,
            )
        return log

    def test_append_and_len(self):
        assert len(self.make_log(7)) == 7

    def test_tail_mean(self):
        log = self.make_log(10)
        assert log.tail_mean("cost", window=3) == pytest.approx(
            np.mean([93.0, 92.0, 91.0])
        )

    def test_tail_mean_empty(self):
        assert np.isnan(RunLog().tail_mean("cost"))

    def test_violation_rates(self):
        log = RunLog()
        for delay in (0.3, 0.5, 0.3, 0.5):
            log.append(
                cost=1.0, policy=ControlPolicy.max_resources(),
                observation=observation(delay=delay),
                d_max_s=0.4, rho_min=0.5,
            )
        dv, mv = log.violation_rates()
        assert dv == pytest.approx(0.5)
        assert mv == 0.0

    def test_as_dict_aligned(self):
        log = self.make_log(4)
        data = log.as_dict()
        assert all(len(v) == 4 for v in data.values())

    def test_render(self):
        text = render_runlog(self.make_log(), title="demo")
        assert "demo" in text and "tail mean cost" in text


class TestWriteCsv(object):
    def test_row_dicts(self, tmp_path):
        path = write_csv(tmp_path / "out.csv", [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        content = path.read_text().strip().splitlines()
        assert content[0] == "a,b"
        assert content[1] == "1,2"

    def test_column_mapping(self, tmp_path):
        path = write_csv(tmp_path / "sub" / "out.csv", {"x": [1, 2], "y": [3, 4]})
        assert path.exists()
        assert "x,y" in path.read_text()


class TestConstraintSchedule:
    def test_piecewise(self):
        schedule = ConstraintSchedule(
            initial=ServiceConstraints(0.5, 0.4),
            changes=(
                (10, ServiceConstraints(0.4, 0.6)),
                (20, ServiceConstraints(0.5, 0.5)),
            ),
        )
        assert schedule.at(0).d_max_s == 0.5
        assert schedule.at(10).rho_min == 0.6
        assert schedule.at(25).rho_min == 0.5


class TestRunner:
    def make_env_agent(self, seed=0, n_levels=5):
        testbed = TestbedConfig(n_levels=n_levels)
        env = static_scenario(mean_snr_db=35.0, rng=seed, config=testbed)
        agent = EdgeBOL(
            testbed.control_grid(),
            ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        return env, agent

    def test_run_agent_length(self):
        env, agent = self.make_env_agent()
        log = run_agent(env, agent, 12)
        assert len(log) == 12

    def test_schedule_applied(self):
        env, agent = self.make_env_agent()
        schedule = ConstraintSchedule(
            initial=ServiceConstraints(0.4, 0.5),
            changes=((5, ServiceConstraints(0.6, 0.3)),),
        )
        log = run_agent(env, agent, 10, schedule=schedule)
        assert log.d_max_s[0] == 0.4
        assert log.d_max_s[9] == 0.6
        assert agent.constraints.d_max_s == 0.6

    def test_track_safe_set(self):
        env, agent = self.make_env_agent()
        log = run_agent(env, agent, 5, track_safe_set=True)
        assert all(s >= 1 for s in log.safe_set_size)

    def test_run_repetitions(self):
        logs = run_repetitions(
            lambda seed: self.make_env_agent(seed),
            n_repetitions=3,
            n_periods=5,
        )
        assert len(logs) == 3
        # Different seeds -> different noise trajectories.
        assert logs[0].cost != logs[1].cost

    def test_band(self):
        logs = run_repetitions(
            lambda seed: self.make_env_agent(seed),
            n_repetitions=3, n_periods=5,
        )
        median, low, high = band(logs, "cost")
        assert median.shape == (5,)
        assert np.all(low <= high)


class TestProfilingExperiments:
    @pytest.fixture(scope="class")
    def env(self):
        return static_scenario(mean_snr_db=35.0, rng=0)

    def test_fig1_rows(self, env):
        rows = profiling.fig1_precision_vs_delay(env, dots_per_point=2)
        assert len(rows) == 8
        assert {"resolution", "delay_ms", "map"} <= set(rows[0])

    def test_fig1_tradeoff_shape(self, env):
        rows = profiling.fig1_precision_vs_delay(env, dots_per_point=4)
        by_res = {}
        for row in rows:
            by_res.setdefault(row["resolution"], []).append(row)
        mean_map = {r: np.mean([x["map"] for x in v]) for r, v in by_res.items()}
        mean_delay = {r: np.mean([x["delay_ms"] for x in v]) for r, v in by_res.items()}
        assert mean_map[1.0] > mean_map[0.25]
        assert mean_delay[1.0] > mean_delay[0.25]

    def test_fig2_airtime_effect(self, env):
        rows = profiling.fig2_delay_vs_server_power(
            env, airtimes=(0.2, 1.0), resolutions=(1.0,), dots_per_point=3
        )
        low = np.mean([r["delay_ms"] for r in rows if r["airtime"] == 0.2])
        high = np.mean([r["delay_ms"] for r in rows if r["airtime"] == 1.0])
        assert low > high

    def test_fig3_gpu_effect(self, env):
        rows = profiling.fig3_gpu_policies(
            env, gpu_speeds=(0.1, 1.0), resolutions=(0.5,), dots_per_point=3
        )
        slow = np.mean([r["gpu_delay_ms"] for r in rows if r["gpu_speed"] == 0.1])
        fast = np.mean([r["gpu_delay_ms"] for r in rows if r["gpu_speed"] == 1.0])
        assert slow > fast

    def test_fig5_mcs_effect(self, env):
        rows = profiling.fig5_bs_power_vs_mcs(
            env, airtimes=(1.0,), resolutions=(1.0,),
            mcs_levels=(0.2, 1.0), dots_per_point=3,
        )
        low_mcs = np.mean([r["bs_power_w"] for r in rows if r["mcs_policy"] == 0.2])
        high_mcs = np.mean([r["bs_power_w"] for r in rows if r["mcs_policy"] == 1.0])
        assert low_mcs > high_mcs

    def test_fig6_regime_flip(self):
        rows = profiling.fig6_bs_power_vs_mcs_10x(
            airtimes=(1.0,), resolutions=(1.0,),
            mcs_levels=(0.5, 1.0), dots_per_point=3,
        )
        low_mcs = np.mean([r["bs_power_w"] for r in rows if r["mcs_policy"] == 0.5])
        high_mcs = np.mean([r["bs_power_w"] for r in rows if r["mcs_policy"] == 1.0])
        assert high_mcs > low_mcs

    def test_summarize_renders(self, env):
        rows = profiling.fig1_precision_vs_delay(env, dots_per_point=2)
        text = profiling.summarize(rows, ["resolution"], ["map", "delay_ms"])
        assert "mean_map" in text


class TestConvergenceHelpers:
    def test_run_convergence_short(self):
        setting = ConvergenceSetting(n_periods=20, n_repetitions=1, n_levels=5)
        log = run_convergence(1.0, setting=setting, seed=0)
        assert len(log) == 20

    def test_convergence_time_detects_flat(self):
        log = RunLog()
        for i in range(50):
            cost = 200.0 if i < 10 else 100.0
            log.append(
                cost=cost, policy=ControlPolicy.max_resources(),
                observation=observation(), d_max_s=0.4, rho_min=0.5,
            )
        t = convergence_time(log, tolerance=0.05)
        assert 5 <= t <= 12


class TestStaticNormaliser:
    def test_normalises_by_the_whole_grid_maximum(self):
        from repro.experiments.static import run_static_cell
        from repro.utils.rng import seed_tree

        # 6 levels: 1296 controls, enough that a strided subsample of
        # the grid would miss its maximum-cost row.
        testbed = TestbedConfig(n_levels=6)
        weights = CostWeights(1.0, 1.0)
        result = run_static_cell(
            ServiceConstraints(0.5, 0.4), 1.0, n_periods=3, tail_window=3,
            seed=0, testbed=testbed,
        )
        oracle_env = static_scenario(
            mean_snr_db=35.0, rng=seed_tree(0, 2)[1], config=testbed
        )
        costs = []
        for row in testbed.control_grid():
            obs = oracle_env.evaluate(ControlPolicy.from_array(row), noisy=False)
            costs.append(weights.cost(obs.server_power_w, obs.bs_power_w))
        assert result.oracle_normalized_cost == result.oracle_cost / max(costs)
        assert result.normalized_cost == result.cost / max(costs)
