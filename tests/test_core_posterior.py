"""Tests for the incremental multi-head posterior engine.

Covers the tentpole invariants: engine posteriors match direct
``GaussianProcess.predict`` within 1e-8 through any mix of ``add``,
eviction, ``set_prior_mean``, ``fit`` and hyperparameter changes; the
GP consistency invariant (incremental state equals a fresh ``fit`` on
the retained data) parametrised over the direct and the engine path;
cache/invalidation behaviour; the per-head running sum of squares and
the cross-head correlation reuse, both bit-exact; and the batch/stat
APIs.
"""

import numpy as np
import pytest

from repro.core import state as snapshot
from repro.core.backend import NumericsConfig
from repro.core.edgebol import EdgeBOL, EdgeBOLConfig
from repro.core.gp import GaussianProcess
from repro.core.kernels import RBF, Matern
from repro.core.posterior import PosteriorBatch, SurrogateEngine
from repro.core.sparse import make_eviction_policy
from repro.testbed.config import CostWeights, ServiceConstraints, TestbedConfig

CONTEXT_DIM = 3
CONTROL_DIM = 4
TOL = 1e-8


def make_grid(rng, n_points=60):
    return rng.random((n_points, CONTROL_DIM))


def make_gp(output_scale=4.0, prior_mean=0.0, **kwargs):
    kernel = Matern(
        lengthscales=np.full(CONTEXT_DIM + CONTROL_DIM, 0.7),
        output_scale=output_scale,
    )
    return GaussianProcess(kernel, noise_variance=0.01,
                           prior_mean=prior_mean, **kwargs)


def make_engine(grid, heads=None, **kwargs):
    if heads is None:
        heads = {
            "cost": make_gp(output_scale=4.0),
            "delay": make_gp(output_scale=0.02, prior_mean=0.8),
            "map": make_gp(output_scale=0.02),
        }
    return SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM, **kwargs), heads


def assert_matches_direct(engine, heads, context, tol=TOL):
    batch = engine.posterior(context)
    joint = engine.joint_grid(context)
    for name, gp in heads.items():
        mean, var = gp.predict(joint)
        np.testing.assert_allclose(batch.mean(name), mean, atol=tol, rtol=0)
        np.testing.assert_allclose(batch.variance(name), var, atol=tol, rtol=0)
        d_mean, d_std = gp.predict_std(joint)
        np.testing.assert_allclose(batch.moments(name)[1], d_std,
                                   atol=tol, rtol=0)
        del d_mean


class TestEngineMatchesDirectPredict:
    def test_empty_heads_return_prior(self):
        rng = np.random.default_rng(0)
        engine, heads = make_engine(make_grid(rng))
        assert_matches_direct(engine, heads, rng.random(CONTEXT_DIM))

    def test_incremental_adds(self):
        rng = np.random.default_rng(1)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        contexts = [rng.random(CONTEXT_DIM) for _ in range(3)]
        for t in range(40):
            z = np.concatenate([contexts[t % 3], grid[t % grid.shape[0]]])
            for gp in heads.values():
                gp.add(z, float(rng.normal()))
            assert_matches_direct(engine, heads, contexts[t % 3])

    def test_mixed_mutations(self):
        """add / evict / set_prior_mean / fit / kernel swap, all exact."""
        rng = np.random.default_rng(2)
        grid = make_grid(rng)
        heads = {
            "cost": make_gp(max_observations=15, eviction_block=5),
            "delay": make_gp(output_scale=0.02, prior_mean=0.8),
        }
        engine, _ = make_engine(grid, heads=heads)
        context = rng.random(CONTEXT_DIM)
        for t in range(50):
            z = np.concatenate([rng.random(CONTEXT_DIM), grid[t % 60]])
            for gp in heads.values():
                gp.add(z, float(rng.normal()))
            if t == 20:
                heads["delay"].set_prior_mean(1.5)
            if t == 30:
                gp = heads["cost"]
                gp.kernel = Matern(
                    lengthscales=np.full(CONTEXT_DIM + CONTROL_DIM, 0.9),
                    output_scale=5.0,
                )
                gp.fit(gp.inputs, gp.targets)
            if t == 40:
                heads["delay"].fit(
                    heads["delay"].inputs[:10], heads["delay"].targets[:10]
                )
            assert_matches_direct(engine, heads, context)

    def test_seeded_run_150_periods(self):
        """The acceptance check: a seeded 150-period run stays within 1e-8."""
        rng = np.random.default_rng(3)
        grid = make_grid(rng, n_points=80)
        engine, heads = make_engine(grid)
        contexts = [rng.random(CONTEXT_DIM) for _ in range(4)]
        worst = 0.0
        for t in range(150):
            context = contexts[t % 4]
            batch = engine.posterior(context)
            joint = engine.joint_grid(context)
            for name, gp in heads.items():
                mean, var = gp.predict(joint)
                worst = max(
                    worst,
                    float(np.abs(batch.mean(name) - mean).max()),
                    float(np.abs(batch.variance(name) - var).max()),
                )
            z = np.concatenate([context, grid[t % 80]])
            for gp in heads.values():
                gp.add(z, float(rng.normal()))
        assert worst <= TOL


@pytest.mark.parametrize("path", ["direct", "engine"])
class TestConsistencyInvariants:
    """After add/evict/set_prior_mean the posterior equals a fresh fit."""

    def _posterior(self, path, gp, grid, context):
        if path == "direct":
            joint = np.hstack([
                np.tile(context, (grid.shape[0], 1)), grid
            ])
            return gp.predict(joint)
        engine = SurrogateEngine({"head": gp}, grid,
                                 context_dim=CONTEXT_DIM)
        # Query twice so the second pass exercises the cached state.
        engine.posterior(context)
        batch = engine.posterior(context)
        return batch.mean("head"), batch.variance("head")

    def test_matches_fresh_fit(self, path):
        rng = np.random.default_rng(4)
        grid = make_grid(rng)
        gp = make_gp(max_observations=20, eviction_block=5)
        context = rng.random(CONTEXT_DIM)
        for t in range(45):
            z = np.concatenate([rng.random(CONTEXT_DIM), grid[t % 60]])
            gp.add(z, float(rng.normal()))
            if t == 25:
                gp.set_prior_mean(0.3)
        assert gp.n_observations <= 25  # eviction really happened
        fresh = GaussianProcess(gp.kernel, noise_variance=gp.noise_variance,
                                prior_mean=gp.prior_mean)
        fresh.fit(gp.inputs, gp.targets)
        mean, var = self._posterior(path, gp, grid, context)
        ref_mean, ref_var = self._posterior("direct", fresh, grid, context)
        np.testing.assert_allclose(mean, ref_mean, atol=TOL, rtol=0)
        np.testing.assert_allclose(var, ref_var, atol=TOL, rtol=0)

    def test_incremental_add_matches_fresh_fit(self, path):
        rng = np.random.default_rng(5)
        grid = make_grid(rng)
        gp = make_gp()
        x = rng.random((12, CONTEXT_DIM + CONTROL_DIM))
        y = rng.normal(size=12)
        for row, target in zip(x, y):
            gp.add(row, float(target))
        fresh = make_gp()
        fresh.fit(x, y)
        context = rng.random(CONTEXT_DIM)
        mean, var = self._posterior(path, gp, grid, context)
        ref_mean, ref_var = self._posterior("direct", fresh, grid, context)
        np.testing.assert_allclose(mean, ref_mean, atol=TOL, rtol=0)
        np.testing.assert_allclose(var, ref_var, atol=TOL, rtol=0)


class TestCacheBehaviour:
    def test_extension_not_rebuild_on_add(self):
        rng = np.random.default_rng(6)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        context = rng.random(CONTEXT_DIM)
        gp = heads["cost"]
        gp.add(np.concatenate([context, grid[0]]), 1.0)
        engine.posterior(context)
        rebuilds = engine.stats.rebuilds
        gp.add(np.concatenate([context, grid[1]]), 2.0)
        engine.posterior(context)
        assert engine.stats.rebuilds == rebuilds
        assert engine.stats.extensions >= 1

    def test_pure_cache_hit_costs_no_kernel_evals(self):
        rng = np.random.default_rng(7)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        context = rng.random(CONTEXT_DIM)
        heads["cost"].add(np.concatenate([context, grid[0]]), 1.0)
        engine.posterior(context)
        evals = engine.stats.kernel_evals
        engine.posterior(context)
        assert engine.stats.kernel_evals == evals
        assert engine.stats.cache_hits >= 1

    def test_repeat_context_workload_accumulates_cache_hits(self):
        """Benchmark-shaped loop: add-then-query never hits, re-query does.

        Regression for the committed ``BENCH_posterior.json`` showing
        ``cache_hits: 0``: the counter was fine — the benchmark added
        an observation to every head before each timed query, so every
        query legitimately took the extension path.  A same-context
        re-query with no new data must count one hit per head.
        """
        rng = np.random.default_rng(11)
        grid = make_grid(rng)
        engine, heads = make_engine(grid)
        context = rng.random(CONTEXT_DIM)
        engine.posterior(context)  # first-contact rebuilds, no hits yet
        assert engine.stats.cache_hits == 0
        rounds = 4
        for t in range(rounds):
            z = np.concatenate([context, grid[t]])
            for gp in heads.values():
                gp.add(z, float(t))
            hits_before = engine.stats.cache_hits
            engine.posterior(context)  # extension path: no hit
            assert engine.stats.cache_hits == hits_before
            engine.posterior(context)  # pure re-query: one hit per head
            assert engine.stats.cache_hits == hits_before + len(heads)
        assert engine.stats.cache_hits == rounds * len(heads)
        assert_matches_direct(engine, heads, context)

    def test_eviction_triggers_rebuild(self):
        rng = np.random.default_rng(8)
        grid = make_grid(rng)
        gp = make_gp(max_observations=5, eviction_block=2)
        engine, _ = make_engine(grid, heads={"cost": gp})
        context = rng.random(CONTEXT_DIM)
        for t in range(6):
            gp.add(np.concatenate([context, grid[t]]), float(t))
            engine.posterior(context)
        rebuilds = engine.stats.rebuilds
        for t in range(6, 10):  # push past the budget -> eviction
            gp.add(np.concatenate([context, grid[t]]), float(t))
        assert gp.n_observations <= 7
        assert_matches_direct(engine, {"cost": gp}, context)
        assert engine.stats.rebuilds > rebuilds

    def test_hyperparameter_swap_invalidates(self):
        rng = np.random.default_rng(9)
        grid = make_grid(rng)
        gp = make_gp()
        engine, _ = make_engine(grid, heads={"cost": gp})
        context = rng.random(CONTEXT_DIM)
        gp.add(np.concatenate([context, grid[0]]), 1.0)
        engine.posterior(context)
        gp.kernel = Matern(
            lengthscales=np.full(CONTEXT_DIM + CONTROL_DIM, 1.3),
            output_scale=9.0,
        )
        gp.fit(gp.inputs, gp.targets)
        assert_matches_direct(engine, {"cost": gp}, context)

    def test_noise_change_invalidates_while_empty(self):
        rng = np.random.default_rng(10)
        grid = make_grid(rng)
        gp = make_gp(output_scale=4.0)
        engine, _ = make_engine(grid, heads={"cost": gp})
        context = rng.random(CONTEXT_DIM)
        before = engine.posterior(context)
        np.testing.assert_allclose(before.variance("cost"), 4.0)
        gp.kernel = Matern(
            lengthscales=np.full(CONTEXT_DIM + CONTROL_DIM, 0.7),
            output_scale=2.0,
        )
        after = engine.posterior(context)
        np.testing.assert_allclose(after.variance("cost"), 2.0)

    def test_lru_bound(self):
        rng = np.random.default_rng(11)
        grid = make_grid(rng)
        engine, _ = make_engine(grid, max_cached_contexts=2)
        for _ in range(5):
            engine.posterior(rng.random(CONTEXT_DIM))
        assert engine.n_cached_contexts == 2
        assert engine.stats.lru_evictions == 3

    def test_reset_cache(self):
        rng = np.random.default_rng(12)
        grid = make_grid(rng)
        engine, _ = make_engine(grid)
        engine.posterior(rng.random(CONTEXT_DIM))
        assert engine.n_cached_contexts == 1
        engine.reset_cache()
        assert engine.n_cached_contexts == 0

    def test_joint_grid_layout(self):
        rng = np.random.default_rng(13)
        grid = make_grid(rng)
        engine, _ = make_engine(grid)
        context = rng.random(CONTEXT_DIM)
        joint = engine.joint_grid(context)
        np.testing.assert_array_equal(joint[:, :CONTEXT_DIM],
                                      np.tile(context, (grid.shape[0], 1)))
        np.testing.assert_array_equal(joint[:, CONTEXT_DIM:], grid)
        # Cached: same object on the second call.
        assert engine.joint_grid(context) is joint


class TestValidationAndStats:
    def test_unknown_head_raises(self):
        rng = np.random.default_rng(14)
        engine, _ = make_engine(make_grid(rng))
        with pytest.raises(KeyError):
            engine.posterior(rng.random(CONTEXT_DIM), heads=("bogus",))

    def test_unknown_head_leaves_cache_untouched(self):
        """A bad head name fails before the context reaches the LRU."""
        rng = np.random.default_rng(20)
        engine, _ = make_engine(make_grid(rng), max_cached_contexts=2)
        kept = [rng.random(CONTEXT_DIM) for _ in range(2)]
        for context in kept:
            engine.posterior(context)
        cached = engine.n_cached_contexts
        stats = engine.stats.snapshot()
        order = list(engine._cache)
        for context in (rng.random(CONTEXT_DIM), kept[0]):
            with pytest.raises(KeyError):
                engine.posterior(context, heads=("cost", "bogus"))
        assert engine.n_cached_contexts == cached
        assert engine.stats.snapshot() == stats
        assert list(engine._cache) == order

    def test_context_shape_and_finiteness(self):
        rng = np.random.default_rng(15)
        engine, _ = make_engine(make_grid(rng))
        with pytest.raises(ValueError):
            engine.posterior(rng.random(CONTEXT_DIM + 1))
        bad = np.array([0.1, np.nan, 0.2])
        with pytest.raises(ValueError):
            engine.posterior(bad)

    def test_head_dim_mismatch_raises(self):
        rng = np.random.default_rng(16)
        bad_gp = GaussianProcess(
            Matern(lengthscales=np.ones(2), output_scale=1.0)
        )
        with pytest.raises(ValueError):
            SurrogateEngine({"cost": bad_gp}, make_grid(rng),
                            context_dim=CONTEXT_DIM)

    def test_constructor_validation(self):
        rng = np.random.default_rng(17)
        grid = make_grid(rng)
        with pytest.raises(ValueError):
            SurrogateEngine({}, grid, context_dim=CONTEXT_DIM)
        with pytest.raises(ValueError):
            make_engine(grid, max_cached_contexts=0)

    def test_stats_snapshot_keys(self):
        rng = np.random.default_rng(18)
        engine, _ = make_engine(make_grid(rng))
        engine.posterior(rng.random(CONTEXT_DIM))
        snap = engine.stats.snapshot()
        for key in ("queries", "head_queries", "kernel_evals", "cache_hits",
                    "extensions", "rebuilds", "lru_evictions", "wall_time_s"):
            assert key in snap
        assert snap["queries"] == 1
        assert snap["head_queries"] == 3

    def test_batch_accessors(self):
        rng = np.random.default_rng(19)
        grid = make_grid(rng)
        engine, _ = make_engine(grid)
        batch = engine.posterior(rng.random(CONTEXT_DIM))
        assert isinstance(batch, PosteriorBatch)
        assert batch.n_points == grid.shape[0]
        assert set(batch.heads) == {"cost", "delay", "map"}
        mean, std = batch.moments("cost")
        np.testing.assert_allclose(std, np.sqrt(batch.variance("cost")))
        assert mean.shape == (grid.shape[0],)
        # std is cached after the first derivation.
        assert batch.std("cost") is batch.std("cost")


# -- running sum of squares and shared correlation blocks ---------------


def assert_vsq_exact(engine):
    """Every cached Σv² equals a fresh axis-0 sum over its rows, bitwise."""
    checked = 0
    states = (item for entry in engine._cache.values()
              for item in entry.states.items())
    for name, state in states:
        expected = np.sum(state.v[: state.n] ** 2, axis=0)
        assert np.array_equal(state.vsq, expected), name
        checked += 1
    assert checked


def sweep_checking_cross(engine, context):
    """``engine.posterior`` plus a bitwise check of the rows it wrote.

    Rows ``k0..n`` that a call adds to a head's cache must equal
    ``gp.kernel(x[k0:n], joint)`` exactly, where ``k0`` is the cached
    row count before the call (0 after a rebuild).
    """
    key = np.asarray(context, dtype=float).ravel().tobytes()
    entry = engine._cache.get(key)
    before = {} if entry is None else {
        name: (state.n, state.factor_version)
        for name, state in entry.states.items()
    }
    batch = engine.posterior(context)
    entry = engine._cache[key]
    for name in batch.heads:
        gp = engine.heads[name]
        x = gp._posterior_state()[0]
        if x is None:
            continue
        state = entry.states[name]
        n0, version = before.get(name, (0, -1))
        k0 = n0 if version == state.factor_version else 0
        assert state.n == x.shape[0]
        assert np.array_equal(
            state.cross[k0: state.n], gp.kernel(x[k0:], entry.joint)
        ), name
    return batch


def solo_engines(heads, grid):
    """One single-head engine per head: nothing to share with."""
    return {
        name: SurrogateEngine({name: gp}, grid, context_dim=CONTEXT_DIM)
        for name, gp in heads.items()
    }


def assert_equals_solo(batch, solos, context):
    """``batch`` equals each head's own engine bitwise.

    Query the solo engines at the same points as the shared one so
    both build their caches over the same row blocks.
    """
    for name, engine in solos.items():
        solo = engine.posterior(context)
        assert np.array_equal(batch.mean(name), solo.mean(name)), name
        assert np.array_equal(batch.variance(name), solo.variance(name)), name


def edgebol_like_heads():
    """Cost and delay share one kernel's lengthscales; mAP has its own."""
    shared = np.linspace(0.5, 1.2, CONTEXT_DIM + CONTROL_DIM)
    own = np.linspace(1.4, 0.6, CONTEXT_DIM + CONTROL_DIM)
    return {
        "cost": GaussianProcess(Matern(shared, output_scale=3600.0),
                                noise_variance=4.0),
        "delay": GaussianProcess(Matern(shared, output_scale=0.0225),
                                 noise_variance=4e-4, prior_mean=0.8),
        "map": GaussianProcess(Matern(own, output_scale=0.0225),
                               noise_variance=4e-4),
    }


def dense_agent(**config):
    """A small-grid EdgeBOL agent on the per-head (dense) engine path."""
    return EdgeBOL(
        TestbedConfig(n_levels=3).control_grid(), ServiceConstraints(),
        CostWeights(1.0, 1.0),
        config=EdgeBOLConfig(numerics=NumericsConfig(), **config),
        context_dim=CONTEXT_DIM,
    )


class TestRunningSumOfSquares:
    def test_axis0_sum_is_row_sequential(self):
        """numpy adds axis-0 rows in order; the engine relies on it."""
        rng = np.random.default_rng(30)
        for n, m in ((1, 5), (2, 17), (9, 513), (64, 1000), (300, 2049)):
            v = rng.normal(size=(n, m)) * rng.lognormal(size=(n, 1))
            running = np.zeros(m)
            for row in v**2:
                running += row
            assert np.array_equal(running, np.sum(v**2, axis=0)), (n, m)

    def test_exact_through_the_engine_lifecycle(self):
        rng = np.random.default_rng(31)
        grid = make_grid(rng, n_points=700)
        engine, heads = make_engine(grid, max_cached_contexts=2)
        contexts = [rng.random(CONTEXT_DIM) for _ in range(3)]

        def add(k):
            for _ in range(k):
                z = np.concatenate([rng.random(CONTEXT_DIM),
                                    grid[rng.integers(grid.shape[0])]])
                for gp in heads.values():
                    gp.add(z, float(rng.normal()))

        add(6)
        engine.posterior(contexts[0])                  # cold rebuild
        assert engine.stats.rebuilds == 3
        assert_vsq_exact(engine)
        add(1)
        extensions = engine.stats.extensions
        engine.posterior(contexts[0])                  # k = 1 extension
        assert engine.stats.extensions == extensions + 3
        assert_vsq_exact(engine)
        add(4)
        engine.posterior(contexts[0])                  # k > 1 extension
        assert_vsq_exact(engine)
        for t in range(9):                             # cycle past the LRU
            add(1 + t % 3)
            engine.posterior(contexts[t % 3])
            assert_vsq_exact(engine)
        assert engine.stats.lru_evictions > 0

        cost = heads["cost"]
        cost.fit(cost.inputs, cost.targets)            # refactorise
        engine.posterior(contexts[0])
        assert_vsq_exact(engine)
        cost.kernel = Matern(                          # kernel swap
            lengthscales=np.full(CONTEXT_DIM + CONTROL_DIM, 0.9),
            output_scale=5.0,
        )
        cost.fit(cost.inputs, cost.targets)
        engine.posterior(contexts[0])
        assert_vsq_exact(engine)
        add(2)
        engine.posterior(contexts[0])
        assert_vsq_exact(engine)

        delay = heads["delay"]
        delay.fit(np.empty((0, CONTEXT_DIM + CONTROL_DIM)), np.empty(0))
        engine.posterior(contexts[0])                  # back to the prior
        state = engine._cache[contexts[0].tobytes()].states["delay"]
        assert state.n == 0
        assert np.array_equal(state.vsq, np.zeros(grid.shape[0]))
        assert_vsq_exact(engine)
        add(3)                                         # and out of it
        engine.posterior(contexts[0])
        assert_vsq_exact(engine)
        assert_matches_direct(engine, heads, contexts[0])

        blob = snapshot.encode_snapshot(
            {"engine": snapshot.engine_state(engine)}
        )
        restored = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM,
                                   max_cached_contexts=2)
        snapshot.restore_engine_state(
            restored, snapshot.decode_snapshot(blob)["engine"]
        )
        assert_vsq_exact(restored)
        assert list(restored._cache) == list(engine._cache)
        for key, entry in engine._cache.items():
            twin = restored._cache[key]
            assert set(twin.states) == set(entry.states)
            for name, state in entry.states.items():
                assert np.array_equal(state.vsq, twin.states[name].vsq)
        for context in contexts[1:]:
            a, b = engine.posterior(context), restored.posterior(context)
            for name in heads:
                assert np.array_equal(a.variance(name), b.variance(name))
                assert np.array_equal(a.mean(name), b.mean(name))


class TestSharedCorrelation:
    def test_rows_exact_and_map_never_reuses(self, monkeypatch):
        rng = np.random.default_rng(40)
        grid = make_grid(rng, n_points=300)
        heads = edgebol_like_heads()
        engine = SurrogateEngine(heads, grid, context_dim=CONTEXT_DIM,
                                 batched=False)
        evaluations, inside = [], []
        correlation, posterior = Matern._correlation, engine.posterior

        def counting(kernel, distance):
            if inside:
                evaluations.append(kernel.lengthscales[0])
            return correlation(kernel, distance)

        def counted(*args, **kwargs):
            inside.append(True)
            try:
                return posterior(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(Matern, "_correlation", counting)
        monkeypatch.setattr(engine, "posterior", counted)
        solos = solo_engines(heads, grid)
        contexts = [rng.random(CONTEXT_DIM) for _ in range(3)]
        for t in range(24):
            context = contexts[t % 3] if t < 12 else contexts[t % 2]
            for _ in range(1 + t % 3):
                z = np.concatenate([context, grid[rng.integers(300)]])
                for gp in heads.values():
                    gp.add(z, float(rng.normal()))
            evaluations.clear()
            batch = sweep_checking_cross(engine, context)
            # One block for cost+delay, one for mAP: never one for all.
            assert sorted(evaluations) == sorted(
                [heads["cost"].kernel.lengthscales[0],
                 heads["map"].kernel.lengthscales[0]]
            )
            assert_equals_solo(batch, solos, context)
        # kernel_evals still counts every head's entries.
        assert engine.stats.kernel_evals == sum(
            solo.stats.kernel_evals for solo in solos.values()
        )

    def test_equal_kernels_different_inputs_do_not_reuse(self):
        rng = np.random.default_rng(41)
        grid = make_grid(rng)
        heads = {"a": make_gp(output_scale=2.0), "b": make_gp(output_scale=2.0)}
        engine, _ = make_engine(grid, heads=heads, batched=False)
        x = rng.random((8, CONTEXT_DIM + CONTROL_DIM))
        heads["a"].fit(x, rng.normal(size=8))
        heads["b"].fit(x[::-1].copy(), rng.normal(size=8))
        context = rng.random(CONTEXT_DIM)
        sweep_checking_cross(engine, context)
        z = np.concatenate([context, grid[0]])
        heads["a"].add(z, 0.5)
        heads["b"].add(z + 0.01, 0.5)
        sweep_checking_cross(engine, context)
        assert_matches_direct(engine, heads, context)

    def test_sparse_policies_keep_different_inputs(self):
        rng = np.random.default_rng(42)
        grid = make_grid(rng)
        scales = np.full(CONTEXT_DIM + CONTROL_DIM, 0.7)
        heads = {
            name: make_gp(max_observations=10, eviction_block=4,
                          eviction_policy=make_eviction_policy(
                              scales, recent_fraction=fraction))
            for name, fraction in (("cost", 0.2), ("delay", 0.8))
        }
        engine, _ = make_engine(grid, heads=heads, batched=False)
        context = rng.random(CONTEXT_DIM)
        diverged = False
        for t in range(40):
            z = np.concatenate([rng.random(CONTEXT_DIM), grid[t % 60]])
            for gp in heads.values():
                gp.add(z, float(rng.normal()))
            sweep_checking_cross(engine, context)
            a, b = (gp._posterior_state()[0] for gp in heads.values())
            diverged |= a.shape == b.shape and not np.array_equal(a, b)
        assert diverged
        assert heads["cost"].evictions and heads["delay"].evictions
        assert_matches_direct(engine, heads, context)

    def test_kernel_family_is_part_of_the_key(self):
        rng = np.random.default_rng(43)
        grid = make_grid(rng)
        scales = np.full(CONTEXT_DIM + CONTROL_DIM, 0.7)
        heads = {
            "matern": GaussianProcess(Matern(scales), noise_variance=0.01),
            "rbf": GaussianProcess(RBF(scales), noise_variance=0.01),
            "nu52": GaussianProcess(Matern(scales, nu=2.5),
                                    noise_variance=0.01),
        }
        engine, _ = make_engine(grid, heads=heads, batched=False)
        context = rng.random(CONTEXT_DIM)
        for t in range(5):
            z = np.concatenate([context, grid[t]])
            for gp in heads.values():
                gp.add(z, float(t))
            sweep_checking_cross(engine, context)
        # One scaled grid serves all three: it depends on lengthscales only.
        assert len(engine._cache[context.tobytes()].scaled) == 1

    def test_no_stale_scaled_grid_after_hyperparameter_fit(self):
        rng = np.random.default_rng(44)
        agent = dense_agent()
        engine = agent.engine
        grid = agent.control_grid
        contexts = [rng.random(CONTEXT_DIM) for _ in range(2)]
        for t in range(6):
            z = np.concatenate([contexts[t % 2], grid[t]])
            for gp in engine.heads.values():
                gp.add(z, float(rng.random()))
            sweep_checking_cross(engine, contexts[t % 2])
        x = rng.random((12, CONTEXT_DIM + CONTROL_DIM))
        agent.fit_hyperparameters(x, rng.random(12), rng.random(12),
                                  rng.random(12), n_restarts=0, rng=0)
        live = {gp.kernel.lengthscales.tobytes()
                for gp in engine.heads.values()}
        for context in contexts:
            sweep_checking_cross(engine, context)
            assert set(engine._cache[context.tobytes()].scaled) <= live
        assert_matches_direct(engine, engine.heads, contexts[0])


class TestFiveHeadsAndBatched:
    def test_decoupled_power_heads_match_solo_engines(self):
        rng = np.random.default_rng(50)
        agent = dense_agent(decoupled_power_gps=True)
        engine = agent.engine
        heads = engine.heads
        assert len(heads) == 5
        grid = agent.control_grid
        solos = solo_engines(heads, grid)
        contexts = [rng.random(CONTEXT_DIM) for _ in range(2)]
        for t in range(10):
            z = np.concatenate([contexts[t % 2], grid[t]])
            for gp in heads.values():
                gp.add(z, float(rng.random()))
            batch = sweep_checking_cross(engine, contexts[t % 2])
            assert_equals_solo(batch, solos, contexts[t % 2])

    def test_batched_matches_dense_with_five_heads(self):
        rng = np.random.default_rng(51)
        grid = make_grid(rng)
        dense_heads = edgebol_like_heads()
        batched_heads = edgebol_like_heads()
        for extra in (dense_heads, batched_heads):
            scales = extra["cost"].kernel.lengthscales
            extra["server"] = GaussianProcess(
                Matern(scales, output_scale=1600.0), noise_variance=6.0)
            extra["bs"] = GaussianProcess(
                Matern(scales, output_scale=2.25), noise_variance=0.01)
        dense = SurrogateEngine(dense_heads, grid, context_dim=CONTEXT_DIM,
                                batched=False)
        batched = SurrogateEngine(batched_heads, grid,
                                  context_dim=CONTEXT_DIM, batched=True)
        contexts = [rng.random(CONTEXT_DIM) for _ in range(3)]
        for t in range(15):
            z = np.concatenate([contexts[t % 3], grid[t]])
            y = float(rng.normal())
            for heads in (dense_heads, batched_heads):
                for gp in heads.values():
                    gp.add(z, y)
            d = dense.posterior(contexts[t % 3])
            b = batched.posterior(contexts[t % 3])
            assert_vsq_exact(batched)
            for name in dense_heads:
                np.testing.assert_allclose(b.mean(name), d.mean(name),
                                           atol=TOL, rtol=0)
                np.testing.assert_allclose(b.variance(name),
                                           d.variance(name), atol=TOL, rtol=0)
        assert batched.stats.kernel_evals == dense.stats.kernel_evals
