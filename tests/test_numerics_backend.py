"""Tests for the numerics layer and the sparse policy.

Covers the direct LAPACK solve helpers of :mod:`repro.core.numerics`
(bit-identity with the scipy routines they replace, scipy's checks),
the backend names :class:`NumericsConfig` accepts, its
construction/validation/environment resolution and the install/use
precedence — plus the deterministic inducing-subset selection of
:mod:`repro.core.sparse` and its conservative-variance property (the
argument that makes sparse mode safe for eq.-8 certification).
"""

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from repro.core.backend import (
    ENV_BACKEND,
    ENV_BATCHED,
    ENV_BUDGET,
    ENV_SPARSE,
    NumericsConfig,
    active_numerics,
    install_numerics,
    numerics_env,
    uninstall_numerics,
    use_numerics,
)
from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern
from repro.core.numerics import (
    NumericalInstabilityError,
    cho_solve_lower,
    robust_cholesky,
    solve_lower,
)
from repro.core.sparse import greedy_inducing_indices, make_eviction_policy


@pytest.fixture(autouse=True)
def _no_installed_config():
    """Every test starts and ends with no installed numerics config."""
    uninstall_numerics()
    yield
    uninstall_numerics()


def spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def factor_layouts(rng, n):
    """One lower factor as C-order, F-order and a non-contiguous block.

    The block is the leading ``n x n`` view of a larger buffer, the
    layout of a GP factor between capacity doublings.
    """
    chol = cholesky(spd(rng, n), lower=True)
    buffer = np.zeros((2 * n, 2 * n))
    buffer[:n, :n] = chol
    return {
        "C": np.ascontiguousarray(chol),
        "F": np.asfortranarray(chol),
        "block": buffer[:n, :n],
    }


class TestNumpyBackendOps:
    """numpy's linear algebra: the LAPACK helpers equal scipy bit for bit."""

    def test_cholesky_bit_identical_to_scipy(self, rng):
        m = spd(rng, 6)
        chol, jitter, retries = robust_cholesky(m)
        assert jitter == 0.0 and retries == 0
        np.testing.assert_array_equal(chol, cholesky(m, lower=True))

    def test_cholesky_raises_linalgerror_on_indefinite(self):
        # The jitter ladder advances on LinAlgError; with no retries
        # left it surfaces, chained.
        with pytest.raises(NumericalInstabilityError) as info:
            robust_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), max_retries=0)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_solve_triangular_bit_identical(self, rng):
        m = np.tril(spd(rng, 6))
        b = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(
            solve_lower(m, b), solve_triangular(m, b, lower=True)
        )

    def test_solve_triangular_batched(self, rng):
        # Per-slice solves equal scipy's own loop over a stacked axis.
        mats = np.stack([np.tril(spd(rng, 5)) for _ in range(3)])
        rhs = rng.normal(size=(3, 5, 2))
        expected = solve_triangular(mats, rhs, lower=True)
        for got, want in zip(
            (solve_lower(m, b) for m, b in zip(mats, rhs)), expected
        ):
            np.testing.assert_array_equal(got, want)

    def test_cho_solve_bit_identical(self, rng):
        m = spd(rng, 6)
        chol = cholesky(m, lower=True)
        b = rng.normal(size=6)
        np.testing.assert_array_equal(
            cho_solve_lower(chol, b), cho_solve((chol, True), b)
        )

    @pytest.mark.parametrize("layout", ["C", "F", "block"])
    @pytest.mark.parametrize("rhs_shape", [(7,), (7, 3)])
    def test_every_layout_matches_scipy(self, rng, layout, rhs_shape):
        chol = factor_layouts(rng, 7)[layout]
        b = rng.normal(size=rhs_shape)
        before = b.copy()
        x = solve_lower(chol, b)
        np.testing.assert_array_equal(x, solve_triangular(chol, b, lower=True))
        assert x.shape == b.shape
        np.testing.assert_array_equal(
            cho_solve_lower(chol, b), cho_solve((chol, True), b)
        )
        np.testing.assert_array_equal(b, before)  # never overwritten

    @pytest.mark.parametrize("where", ["factor", "rhs"])
    def test_nonfinite_input_raises_valueerror(self, rng, where):
        chol = factor_layouts(rng, 4)["block"].copy()
        b = rng.normal(size=4)
        if where == "factor":
            chol[2, 1] = np.nan
        else:
            b[3] = np.nan
        for solve in (solve_lower, cho_solve_lower):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(chol, b)

    def test_zero_pivot_raises_linalgerror(self, rng):
        chol = factor_layouts(rng, 4)["C"].copy()
        chol[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
            solve_lower(chol, rng.normal(size=4))

    def test_shape_mismatch_raises_valueerror(self, rng):
        chol = factor_layouts(rng, 4)["C"]
        for solve in (solve_lower, cho_solve_lower):
            with pytest.raises(ValueError):
                solve(chol, np.ones(5))
            with pytest.raises(ValueError):
                solve(chol[:, :3], np.ones(4))


class TestRegistry:
    """Backend names: ``numpy`` is the only one the config accepts."""

    def test_default_backend_is_numpy(self):
        assert active_numerics().backend == "numpy"
        assert NumericsConfig.from_env({}).backend == "numpy"

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_unavailable_accelerator_backends_raise_actionably(self, name):
        with pytest.raises(ValueError, match=name) as info:
            NumericsConfig(backend=name)
        assert ENV_BACKEND in str(info.value)
        with pytest.raises(ValueError, match="numpy"):
            NumericsConfig.from_env({ENV_BACKEND: name})

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="fortran77"):
            NumericsConfig(backend="fortran77")
        with pytest.raises(ValueError, match="fortran77"):
            numerics_env(backend="fortran77", environ={})


class TestNumericsConfig:
    def test_defaults_are_dense_numpy(self):
        config = NumericsConfig()
        assert config.backend == "numpy"
        assert not config.batched_heads and not config.sparse
        assert config.mode == "dense"

    @pytest.mark.parametrize("batched,sparse,mode", [
        (False, False, "dense"),
        (True, False, "batched"),
        (False, True, "sparse"),
        (True, True, "sparse+batched"),
    ])
    def test_mode_labels(self, batched, sparse, mode):
        assert NumericsConfig(
            batched_heads=batched, sparse=sparse
        ).mode == mode

    @pytest.mark.parametrize("label", [
        "dense", "batched", "sparse", "sparse-batched", "sparse+batched",
    ])
    def test_from_mode_round_trips(self, label):
        config = NumericsConfig.from_mode(label)
        assert config.mode == label.replace("-", "+")

    def test_from_mode_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown numerics mode"):
            NumericsConfig.from_mode("lightspeed")

    def test_from_mode_overrides(self):
        config = NumericsConfig.from_mode("sparse", sparse_budget=32)
        assert config.sparse and config.sparse_budget == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericsConfig(sparse_budget=0)
        with pytest.raises(ValueError):
            NumericsConfig(sparse_block=0)
        with pytest.raises(ValueError):
            NumericsConfig(recent_fraction=1.5)
        with pytest.raises(ValueError):
            NumericsConfig(variance_inflation=0.5)

    def test_from_env_parses_variables(self):
        environ = {
            ENV_BACKEND: "numpy",
            ENV_BATCHED: "true",
            ENV_SPARSE: "0",
            ENV_BUDGET: "77",
        }
        config = NumericsConfig.from_env(environ)
        assert config.batched_heads and not config.sparse
        assert config.sparse_budget == 77

    def test_from_env_bad_budget_raises(self):
        with pytest.raises(ValueError, match=ENV_BUDGET):
            NumericsConfig.from_env({ENV_BUDGET: "many"})

    def test_env_vars_round_trip(self):
        config = NumericsConfig(batched_heads=True, sparse=True,
                                sparse_budget=128)
        assert NumericsConfig.from_env(config.env_vars()) == config

    def test_install_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_BATCHED, "1")
        assert active_numerics().batched_heads
        install_numerics(NumericsConfig())
        assert not active_numerics().batched_heads
        uninstall_numerics()
        assert active_numerics().batched_heads

    def test_install_rejects_non_config(self):
        with pytest.raises(TypeError):
            install_numerics({"backend": "numpy"})

    def test_use_numerics_restores_previous(self):
        outer = NumericsConfig(sparse=True)
        install_numerics(outer)
        with use_numerics(NumericsConfig(batched_heads=True)) as inner:
            assert active_numerics() is inner
        assert active_numerics() is outer

    def test_numerics_env_resolves_and_exports(self):
        environ = {ENV_BUDGET: "99"}
        config = numerics_env("sparse-batched", environ=environ)
        assert config.mode == "sparse+batched"
        assert config.sparse_budget == 99  # env value kept
        assert environ[ENV_SPARSE] == "1"
        assert environ[ENV_BATCHED] == "1"

    def test_numerics_env_flag_overrides_win(self):
        environ = {ENV_SPARSE: "1", ENV_BUDGET: "99"}
        config = numerics_env("dense", sparse_budget=11, environ=environ)
        assert config.mode == "dense"
        assert config.sparse_budget == 11
        assert environ[ENV_SPARSE] == "0"
        assert environ[ENV_BUDGET] == "11"

    def test_numerics_env_without_flags_keeps_environment(self):
        environ = {ENV_BATCHED: "yes"}
        config = numerics_env(environ=environ)
        assert config.batched_heads
        assert environ[ENV_BATCHED] == "1"  # normalised back


class TestGreedyInducingSelection:
    def test_selects_all_when_budget_covers(self, rng):
        x = rng.random((5, 3))
        np.testing.assert_array_equal(
            greedy_inducing_indices(x, 8), np.arange(5)
        )

    def test_deterministic_sorted_unique(self, rng):
        x = rng.random((40, 7))
        first = greedy_inducing_indices(x, 12)
        second = greedy_inducing_indices(x, 12)
        np.testing.assert_array_equal(first, second)
        assert first.size == 12
        assert np.all(np.diff(first) > 0)  # sorted, unique

    def test_seeds_from_most_recent_row(self, rng):
        x = rng.random((10, 2))
        assert 9 in greedy_inducing_indices(x, 3)

    def test_farthest_point_behaviour(self):
        # Seed is the last row (value 2); rows 0 and 4 are the extremes.
        x = np.array([[0.0], [0.9], [1.1], [1.9], [4.0], [2.0]])
        np.testing.assert_array_equal(
            greedy_inducing_indices(x, 3), [0, 4, 5]
        )

    def test_tie_breaks_to_lowest_index(self):
        # Rows 0 and 1 are equidistant from the seed (row 2).
        x = np.array([[0.0], [4.0], [2.0]])
        np.testing.assert_array_equal(
            greedy_inducing_indices(x, 2), [0, 2]
        )

    def test_preselected_rows_forced(self, rng):
        x = rng.random((30, 4))
        keep = greedy_inducing_indices(x, 10, preselected=[3, 17])
        assert {3, 17} <= set(keep.tolist())

    def test_lengthscales_change_the_metric(self):
        # Dimension 0 dominates unscaled; huge lengthscale mutes it so
        # dimension 1 decides instead.
        x = np.array([[0.0, 0.0], [10.0, 0.1], [0.0, 1.0], [0.1, 0.0]])
        unscaled = greedy_inducing_indices(x, 2, preselected=[0])
        muted = greedy_inducing_indices(
            x, 2, lengthscales=[1000.0, 1.0], preselected=[0]
        )
        assert 1 in unscaled
        assert 2 in muted

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            greedy_inducing_indices(rng.random(5), 2)  # 1-D
        with pytest.raises(ValueError):
            greedy_inducing_indices(rng.random((5, 2)), 0)
        with pytest.raises(ValueError):
            greedy_inducing_indices(
                rng.random((5, 2)), 2, preselected=[0, 1, 2]
            )


class TestEvictionPolicy:
    def test_under_budget_keeps_everything(self, rng):
        policy = make_eviction_policy()
        np.testing.assert_array_equal(
            policy(rng.random((6, 3)), rng.normal(size=6), 10),
            np.arange(6),
        )

    def test_over_budget_trims_to_budget_with_recent_block(self, rng):
        policy = make_eviction_policy(recent_fraction=0.25)
        x = rng.random((50, 3))
        keep = policy(x, rng.normal(size=50), 20)
        assert keep.size == 20
        # The newest round(20 * 0.25) = 5 rows are always retained.
        assert set(range(45, 50)) <= set(keep.tolist())

    def test_deterministic(self, rng):
        policy = make_eviction_policy(lengthscales=np.full(3, 0.8))
        x, y = rng.random((40, 3)), rng.normal(size=40)
        np.testing.assert_array_equal(policy(x, y, 16), policy(x, y, 16))

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            make_eviction_policy(recent_fraction=-0.1)
        policy = make_eviction_policy()
        with pytest.raises(ValueError):
            policy(rng.random((5, 2)), rng.normal(size=5), 0)


class TestSubsetVarianceConservatism:
    def test_subset_posterior_variance_upper_bounds_full(self, rng):
        """The property that keeps eq.-8 valid in sparse mode.

        Conditioning on more observations never increases posterior
        variance, so a subset-of-data GP reports variances >= the
        full-data GP's at every query point.
        """
        d = 5
        kernel = Matern(lengthscales=np.full(d, 0.7), output_scale=2.0)
        x = rng.random((60, d))
        y = rng.normal(size=60)
        query = rng.random((25, d))

        full = GaussianProcess(kernel, noise_variance=0.05)
        full.fit(x, y)
        _, full_var = full.predict(query)

        keep = greedy_inducing_indices(x, 20, lengthscales=kernel.lengthscales)
        subset = GaussianProcess(kernel, noise_variance=0.05)
        subset.fit(x[keep], y[keep])
        _, subset_var = subset.predict(query)

        assert np.all(subset_var >= full_var - 1e-10)
