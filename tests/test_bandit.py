"""Tests for the benchmark policies: DDPG, oracle, simple baselines."""

import numpy as np
import pytest

from repro.bandit import (
    DDPGConfig,
    DDPGController,
    EpsilonGreedyBandit,
    ExhaustiveOracle,
    PenalizedGPBandit,
)
from repro.experiments.runner import run_agent
from repro.testbed.config import (
    ControlPolicy,
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
    default_control_grid,
)
from repro.testbed.env import GridObservation, TestbedObservation
from repro.testbed.scenarios import static_scenario


def make_observation(delay=0.3, map_score=0.6, server=100.0, bs=5.0):
    return TestbedObservation(
        delay_s=delay,
        map_score=map_score,
        server_power_w=server,
        bs_power_w=bs,
        gpu_delay_s=0.1,
        gpu_utilization=0.3,
        total_rate_hz=3.0,
        mean_mcs=20.0,
        offered_load_bps=1e6,
        per_user_delay_s=(delay,),
        per_user_rate_hz=(3.0,),
    )


class TestDDPGController:
    def make(self, **kwargs):
        return DDPGController(
            ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
            config=DDPGConfig(warmup_steps=2, batch_size=8, updates_per_step=1),
            rng=0,
            **kwargs,
        )

    def test_select_returns_valid_policy(self, static_env):
        agent = self.make()
        context = static_env.observe_context()
        policy = agent.select(context)
        assert 0.25 <= policy.resolution <= 1.0
        assert 0.1 <= policy.airtime <= 1.0

    def test_ddpg_cost_feasible(self):
        agent = self.make()
        cost = agent.ddpg_cost(make_observation(delay=0.3, map_score=0.6))
        assert cost == pytest.approx(105.0 / 300.0)

    def test_ddpg_cost_infeasible_is_max(self):
        agent = self.make()
        assert agent.ddpg_cost(make_observation(delay=0.9)) == 1.0
        assert agent.ddpg_cost(make_observation(map_score=0.1)) == 1.0

    def test_observe_returns_raw_cost(self, static_env):
        agent = self.make()
        context = static_env.observe_context()
        policy = agent.select(context)
        cost = agent.observe(context, policy, make_observation())
        assert cost == pytest.approx(105.0)

    def test_noise_decays(self, static_env):
        agent = self.make()
        initial = agent._noise_std
        context = static_env.observe_context()
        for _ in range(50):
            policy = agent.select(context)
            agent.observe(context, policy, make_observation())
        assert agent._noise_std < initial

    def test_set_constraints_clears_buffer(self, static_env):
        agent = self.make()
        context = static_env.observe_context()
        for _ in range(5):
            agent.observe(context, agent.select(context), make_observation())
        agent.set_constraints(ServiceConstraints(0.5, 0.4))
        assert len(agent._buffer) == 0

    def test_learning_reduces_cost(self):
        """DDPG eventually improves on random actions (slowly)."""
        testbed = TestbedConfig()
        env = static_scenario(mean_snr_db=35.0, rng=0, config=testbed)
        agent = DDPGController(
            ServiceConstraints(0.5, 0.4),
            CostWeights(1.0, 1.0),
            config=DDPGConfig(warmup_steps=20, updates_per_step=4),
            rng=1,
        )
        log = run_agent(env, agent, 250)
        early = np.nanmean(log.cost[:30])
        late = np.nanmean(log.cost[-50:])
        assert late < early * 1.05  # at minimum it must not diverge


class TestExhaustiveOracle:
    def make_oracle(self, constraints=None, grid_levels=5):
        testbed = TestbedConfig()
        env = static_scenario(mean_snr_db=35.0, rng=0, config=testbed)
        oracle = ExhaustiveOracle(
            env, CostWeights(1.0, 1.0),
            control_grid=default_control_grid(grid_levels),
        )
        return oracle

    def test_result_is_feasible(self):
        oracle = self.make_oracle()
        result = oracle.best(ServiceConstraints(0.4, 0.5), snrs_db=[35.0])
        assert result.feasible
        assert result.delay_s <= 0.4
        assert result.map_score >= 0.5

    def test_result_is_grid_minimum(self):
        oracle = self.make_oracle()
        constraints = ServiceConstraints(0.4, 0.5)
        result = oracle.best(constraints, snrs_db=[35.0])
        for row in oracle.control_grid:
            obs = oracle.env.evaluate(
                ControlPolicy.from_array(row), snrs_db=[35.0], noisy=False
            )
            if constraints.satisfied(obs.delay_s, obs.map_score):
                cost = oracle.cost_weights.cost(
                    obs.server_power_w, obs.bs_power_w
                )
                assert result.cost <= cost + 1e-9

    def test_infeasible_flag(self):
        oracle = self.make_oracle()
        result = oracle.best(
            ServiceConstraints(0.001, 0.99), snrs_db=[35.0]
        )
        assert not result.feasible

    def test_cache_hit(self):
        oracle = self.make_oracle()
        constraints = ServiceConstraints(0.4, 0.5)
        a = oracle.best(constraints, snrs_db=[35.0])
        b = oracle.best(constraints, snrs_db=[35.0])
        assert a is b

    def test_tighter_constraints_cost_more(self):
        oracle = self.make_oracle(grid_levels=6)
        lax = oracle.best(ServiceConstraints(0.5, 0.4), snrs_db=[35.0])
        medium = oracle.best(ServiceConstraints(0.4, 0.5), snrs_db=[35.0])
        assert medium.cost >= lax.cost - 1e-9


def loop_oracle(env, weights, grid, constraints, snrs):
    """The row-by-row search ``ExhaustiveOracle.best`` replaced."""
    best_feasible = best_any = None
    for row in grid:
        policy = ControlPolicy.from_array(row)
        obs = env.evaluate(policy, snrs_db=snrs, noisy=False)
        cost = weights.cost(obs.server_power_w, obs.bs_power_w)
        feasible = constraints.satisfied(obs.delay_s, obs.map_score)
        result = (policy, cost, obs.delay_s, obs.map_score, feasible)
        if best_any is None or cost < best_any[1]:
            best_any = result
        if feasible and (best_feasible is None or cost < best_feasible[1]):
            best_feasible = result
    return best_feasible if best_feasible is not None else best_any


def as_tuple(result):
    return (result.policy, result.cost, result.delay_s, result.map_score,
            result.feasible)


def same_result(a, b):
    """Field-wise equality that treats NaN costs as equal."""
    return all(x == y or (x != x and y != y) for x, y in zip(a, b))


class StubGridEnv:
    """Environment with hand-set KPIs per control row."""

    def __init__(self, grid, delay, map_score, server, bs):
        self.grid = grid
        self.kpis = GridObservation(
            delay_s=np.asarray(delay, dtype=float),
            map_score=np.asarray(map_score, dtype=float),
            server_power_w=np.asarray(server, dtype=float),
            bs_power_w=np.asarray(bs, dtype=float),
        )
        self.current_snrs_db = [30.0]

    def evaluate_grid(self, grid, snrs_db=None):
        assert grid is self.grid
        return self.kpis

    def evaluate(self, policy, snrs_db=None, noisy=False):
        i = next(
            i for i, row in enumerate(self.grid)
            if np.array_equal(row, policy.to_array())
        )
        k = self.kpis
        return make_observation(
            delay=float(k.delay_s[i]), map_score=float(k.map_score[i]),
            server=float(k.server_power_w[i]), bs=float(k.bs_power_w[i]),
        )


NAN = float("nan")

#: (delay, mAP, server W, BS W) per row: ties, NaN costs, infeasible rows.
STUB_KPIS = {
    "ties": (
        [0.5, 0.2, 0.2, 0.3, 0.2, 0.1],
        [0.6] * 6,
        [90.0, 80.0, 70.0, 70.0, 70.0, 75.0],
        [5.0, 5.0, 5.0, 5.0, 5.0, 0.0],
    ),
    "nan_mid": (
        [0.2] * 6,
        [0.6] * 6,
        [90.0, NAN, 70.0, NAN, 70.0, 95.0],
        [5.0] * 6,
    ),
    "nan_first_feasible": (
        [0.9, 0.2, 0.2, 0.2, 0.9, 0.2],
        [0.6] * 6,
        [10.0, NAN, 70.0, 60.0, 5.0, 60.0],
        [5.0] * 6,
    ),
    "nan_first_row_none_feasible": (
        [0.9] * 6,
        [0.6] * 6,
        [NAN, 80.0, 70.0, 60.0, 60.0, 90.0],
        [5.0] * 6,
    ),
    "all_nan": (
        [0.2] * 6,
        [0.6] * 6,
        [NAN] * 6,
        [5.0] * 6,
    ),
    "none_feasible_ties": (
        [0.9, 0.2, 0.9, 0.2, 0.9, 0.9],
        [0.6, 0.1, 0.6, 0.3, 0.6, 0.6],
        [80.0, 50.0, 60.0, 50.0, 60.0, 70.0],
        [5.0] * 6,
    ),
}


class TestOracleMatchesRowLoop:
    @pytest.mark.parametrize("case", sorted(STUB_KPIS))
    def test_stub_kpis(self, case):
        grid = default_control_grid(2)[:6]
        env = StubGridEnv(grid, *STUB_KPIS[case])
        weights = CostWeights(1.0, 2.0)
        constraints = ServiceConstraints(0.4, 0.5)
        result = ExhaustiveOracle(env, weights, control_grid=grid).best(
            constraints, snrs_db=[30.0]
        )
        expected = loop_oracle(env, weights, grid, constraints, [30.0])
        assert same_result(as_tuple(result), expected)
        assert type(result.cost) is float and type(result.feasible) is bool

    @pytest.mark.parametrize("constraints", [
        ServiceConstraints(0.5, 0.4),
        ServiceConstraints(0.3, 0.6),
        ServiceConstraints(0.001, 0.99),
    ])
    @pytest.mark.parametrize("snrs", [[35.0], [4.0, 22.5, 31.0]])
    def test_testbed(self, constraints, snrs):
        testbed = TestbedConfig(n_levels=4)
        env = static_scenario(mean_snr_db=35.0, rng=0, config=testbed)
        grid = testbed.control_grid()
        weights = CostWeights(1.0, 16.0)
        result = ExhaustiveOracle(env, weights, control_grid=grid).best(
            constraints, snrs_db=snrs
        )
        assert as_tuple(result) == loop_oracle(
            env, weights, grid, constraints, snrs
        )

    def test_memo_keys_on_exact_snrs(self):
        testbed = TestbedConfig(n_levels=4)
        constraints = ServiceConstraints(0.4, 0.5)

        def fresh():
            env = static_scenario(mean_snr_db=35.0, rng=0, config=testbed)
            return ExhaustiveOracle(env, CostWeights(1.0, 64.0))

        # Both read 11.00 dB at 0.01 dB, but 11 dB is a CQI boundary
        # (CQI 10 above, 9 below), so the two searches differ.
        snrs_a, snrs_b = [11.004], [10.996]
        oracle = fresh()
        a = oracle.best(constraints, snrs_db=snrs_a)
        b = oracle.best(constraints, snrs_db=snrs_b)
        assert a != b
        assert oracle.best(constraints, snrs_db=[11.004]) is a
        assert a == fresh().best(constraints, snrs_db=snrs_a)
        assert b == fresh().best(constraints, snrs_db=snrs_b)

    def test_empty_grid_rejected(self):
        env = static_scenario(mean_snr_db=35.0, rng=0)
        with pytest.raises(ValueError, match="n >= 1"):
            ExhaustiveOracle(env, CostWeights(), control_grid=np.zeros((0, 4)))


class TestEpsilonGreedy:
    def make(self):
        return EpsilonGreedyBandit(
            default_control_grid(3),
            ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
            epsilon=0.5,
            rng=0,
        )

    def test_select_before_observe(self, static_env):
        agent = self.make()
        policy = agent.select(static_env.observe_context())
        assert isinstance(policy, ControlPolicy)

    def test_observe_without_select_raises(self, static_env):
        agent = self.make()
        with pytest.raises(RuntimeError):
            agent.observe(
                static_env.observe_context(),
                ControlPolicy.max_resources(),
                make_observation(),
            )

    def test_penalty_applied(self, static_env):
        agent = self.make()
        context = static_env.observe_context()
        agent.select(context)
        agent.observe(context, ControlPolicy.max_resources(),
                      make_observation(delay=5.0))
        assert agent._means[agent._last_index] > 500.0

    def test_epsilon_decays(self, static_env):
        agent = self.make()
        context = static_env.observe_context()
        for _ in range(30):
            agent.select(context)
            agent.observe(context, ControlPolicy.max_resources(),
                          make_observation())
        assert agent.epsilon < 0.5

    def test_set_constraints_resets(self, static_env):
        agent = self.make()
        context = static_env.observe_context()
        agent.select(context)
        agent.observe(context, ControlPolicy.max_resources(), make_observation())
        agent.set_constraints(ServiceConstraints(0.5, 0.4))
        assert agent._counts.sum() == 0


class TestPenalizedGPBandit:
    def test_violates_during_learning_then_settles(self):
        """Without a safe set, learning *requires* infeasible probes —
        the behaviour the EdgeBOL safe set exists to avoid."""
        testbed = TestbedConfig(n_levels=5)
        env = static_scenario(mean_snr_db=35.0, rng=0, config=testbed)
        agent = PenalizedGPBandit(
            testbed.control_grid(),
            ServiceConstraints(0.4, 0.5),
            CostWeights(1.0, 1.0),
        )
        log = run_agent(env, agent, 60)
        delay_viol, _ = log.violation_rates()
        assert delay_viol > 0.0
        # It still converges to a sane feasible-ish operating cost.
        assert 80.0 < np.mean(log.cost[-15:]) < 160.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            PenalizedGPBandit(
                np.zeros((3, 2)),
                ServiceConstraints(),
                CostWeights(),
            )
