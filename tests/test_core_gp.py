"""Tests for the exact GP (posterior eqs. 3-4, incremental updates)."""

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from repro.core.gp import GaussianProcess
from repro.core.kernels import Matern, RBF
from repro.core.numerics import NumericalInstabilityError
from repro.core.sparse import make_eviction_policy


def make_gp(**kwargs):
    defaults = dict(
        kernel=Matern(lengthscales=[1.0], output_scale=1.0),
        noise_variance=1e-4,
    )
    defaults.update(kwargs)
    return GaussianProcess(**defaults)


def reference_posterior(kernel, noise, x_train, y_train, x_star,
                        prior_mean=0.0):
    """Direct dense implementation of eqs. (3)-(4)."""
    gram = kernel(x_train, x_train) + noise * np.eye(len(x_train))
    k_star = kernel(x_train, x_star)
    inv = np.linalg.inv(gram)
    mean = prior_mean + k_star.T @ inv @ (y_train - prior_mean)
    var = kernel.diag(x_star) - np.sum(k_star * (inv @ k_star), axis=0)
    return mean, var


class TestPrior:
    def test_prior_mean_and_variance(self):
        gp = make_gp(prior_mean=2.0)
        mean, var = gp.predict(np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(mean, [2.0, 2.0])
        np.testing.assert_allclose(var, [1.0, 1.0])

    def test_invalid_prior_mean(self):
        with pytest.raises(ValueError):
            make_gp(prior_mean=float("nan"))


class TestPosterior:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(15, 2))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1]
        kernel = Matern(lengthscales=[0.8, 1.2], output_scale=1.5)
        gp = GaussianProcess(kernel, noise_variance=0.01)
        gp.fit(x, y)
        x_star = rng.uniform(-2, 2, size=(7, 2))
        mean, var = gp.predict(x_star)
        ref_mean, ref_var = reference_posterior(kernel, 0.01, x, y, x_star)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(var, ref_var, rtol=1e-6, atol=1e-10)

    def test_interpolates_training_data(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, -1.0, 0.5])
        gp = make_gp(noise_variance=1e-8)
        gp.fit(x, y)
        mean, var = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-4)
        assert np.all(var < 1e-4)

    def test_variance_shrinks_near_data(self):
        gp = make_gp()
        gp.fit(np.array([[0.0]]), np.array([1.0]))
        _, var_near = gp.predict(np.array([[0.1]]))
        _, var_far = gp.predict(np.array([[5.0]]))
        assert var_near[0] < var_far[0]

    def test_mean_reverts_to_prior_far_away(self):
        gp = make_gp(prior_mean=3.0)
        gp.fit(np.array([[0.0]]), np.array([10.0]))
        mean, _ = gp.predict(np.array([[100.0]]))
        assert mean[0] == pytest.approx(3.0, abs=1e-6)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(40, 3))
        y = rng.normal(size=40)
        gp = GaussianProcess(
            Matern(lengthscales=[0.5, 0.5, 0.5]), noise_variance=1e-6
        )
        gp.fit(x, y)
        _, var = gp.predict(rng.uniform(0, 1, size=(100, 3)))
        assert np.all(var >= 0)


class TestIncrementalUpdates:
    def test_add_matches_batch_fit(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(20, 2))
        y = rng.normal(size=20)
        kernel = Matern(lengthscales=[0.7, 0.9])

        batch = GaussianProcess(kernel, noise_variance=0.01)
        batch.fit(x, y)
        online = GaussianProcess(kernel, noise_variance=0.01)
        for xi, yi in zip(x, y):
            online.add(xi, yi)

        x_star = rng.uniform(-1, 1, size=(9, 2))
        m1, v1 = batch.predict(x_star)
        m2, v2 = online.predict(x_star)
        np.testing.assert_allclose(m1, m2, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(v1, v2, rtol=1e-5, atol=1e-9)

    def test_duplicate_points_stay_stable(self):
        gp = make_gp(noise_variance=1e-6)
        for _ in range(10):
            gp.add(np.array([0.5]), 1.0)
        mean, var = gp.predict(np.array([[0.5]]))
        assert mean[0] == pytest.approx(1.0, abs=1e-3)
        assert np.isfinite(var[0])

    def test_add_rejects_nonfinite(self):
        gp = make_gp()
        with pytest.raises(ValueError):
            gp.add(np.array([np.inf]), 1.0)
        with pytest.raises(ValueError):
            gp.add(np.array([0.0]), float("nan"))

    def test_n_observations(self):
        gp = make_gp()
        assert gp.n_observations == 0
        gp.add(np.array([0.0]), 1.0)
        gp.add(np.array([1.0]), 2.0)
        assert gp.n_observations == 2


class TestEviction:
    def test_budget_enforced(self):
        gp = make_gp(max_observations=10, eviction_block=5)
        for i in range(30):
            gp.add(np.array([float(i)]), float(i))
        assert gp.n_observations <= 15

    def test_keeps_most_recent(self):
        gp = make_gp(max_observations=5, eviction_block=2)
        for i in range(20):
            gp.add(np.array([float(i)]), float(i))
        assert gp.inputs[-1, 0] == 19.0
        # Predictions near recent data stay accurate.
        mean, _ = gp.predict(np.array([[19.0]]))
        assert mean[0] == pytest.approx(19.0, abs=0.5)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            make_gp(max_observations=0)


class TestValidationAndMisc:
    def test_fit_shape_checks(self):
        gp = make_gp()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(3))

    def test_predict_dim_check(self):
        gp = make_gp()
        with pytest.raises(ValueError):
            gp.predict(np.zeros((2, 3)))

    def test_predict_rejects_nonfinite_queries(self):
        gp = make_gp()
        gp.fit(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                gp.predict(np.array([[bad]]))
            with pytest.raises(ValueError, match="finite"):
                gp.predict_std(np.array([[0.5], [bad]]))

    def test_prior_predict_rejects_nonfinite_queries(self):
        # The validation must also guard the no-observations path.
        gp = make_gp()
        with pytest.raises(ValueError, match="finite"):
            gp.predict(np.array([[np.nan]]))

    def test_nonfinite_error_names_first_bad_coordinate(self):
        # Regression: the error must say *which* entry is bad, not just
        # that one exists (debugging a 14641x6 grid without the index
        # was hopeless).
        gp = make_gp(kernel=Matern(lengthscales=[1.0, 1.0], output_scale=1.0))
        queries = np.zeros((4, 2))
        queries[2, 1] = np.inf
        with pytest.raises(ValueError, match=r"\(2, 1\)") as excinfo:
            gp.predict(queries)
        assert "inf" in str(excinfo.value)

        queries[2, 1] = np.nan
        queries[1, 0] = np.nan  # earlier in row-major order -> reported
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            gp.predict_std(queries)

    def test_nonfinite_error_names_index_on_fit_and_add(self):
        gp = make_gp()
        x = np.array([[0.0], [np.nan], [1.0]])
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            gp.fit(x, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match=r"\(1,\)"):
            gp.fit(np.array([[0.0], [1.0], [2.0]]),
                   np.array([1.0, np.inf, 3.0]))
        with pytest.raises(ValueError, match=r"\(0,\)"):
            gp.add(np.array([np.nan]), 1.0)

    def test_predict_std(self):
        gp = make_gp()
        gp.add(np.array([0.0]), 1.0)
        mean, std = gp.predict_std(np.array([[0.0]]))
        _, var = gp.predict(np.array([[0.0]]))
        assert std[0] == pytest.approx(np.sqrt(var[0]))

    def test_posterior_samples_distribution(self):
        gp = GaussianProcess(RBF(lengthscales=[1.0]), noise_variance=1e-4)
        gp.fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        x_star = np.array([[0.5]])
        draws = gp.sample_posterior(x_star, n_samples=4000, rng=0)
        mean, var = gp.predict(x_star)
        assert draws.mean() == pytest.approx(mean[0], abs=0.05)
        assert draws.var() == pytest.approx(var[0], abs=0.05)

    def test_targets_property(self):
        gp = make_gp()
        gp.add(np.array([0.0]), 5.0)
        np.testing.assert_array_equal(gp.targets, [5.0])


class ReferenceGP:
    """The allocate-per-observation algorithm the buffered GP replaced.

    A fresh (N+1)^2 factor, ``vstack``/``append`` of the data and
    scipy's ``solve_triangular``/``cho_solve`` on every observation.
    """

    def __init__(self, kernel, noise, max_observations=None,
                 eviction_block=100, policy=None):
        self.kernel, self.noise = kernel, noise
        self.max_observations, self.block = max_observations, eviction_block
        self.policy = policy
        self.prior_mean = 0.0
        self.x = self.y = self.chol = self.alpha = None

    def set_prior_mean(self, prior_mean):
        self.prior_mean = prior_mean
        self.alpha = cho_solve((self.chol, True), self.y - prior_mean)

    def refactorize(self):
        gram = self.kernel(self.x, self.x)
        gram[np.diag_indices_from(gram)] += self.noise
        self.chol = cholesky(gram, lower=True)
        self.alpha = cho_solve((self.chol, True), self.y - self.prior_mean)

    def fit(self, x, y):
        self.x, self.y = x.copy(), y.copy()
        self.refactorize()

    def add(self, x_new, y_new, fallback=False):
        if self.x is None:
            self.fit(x_new[None, :], np.array([y_new]))
            return
        cross = self.kernel(self.x, x_new[None, :]).ravel()
        self_var = float(self.kernel.diag(x_new[None, :])[0]) + self.noise
        row = solve_triangular(self.chol, cross, lower=True)
        pivot_sq = self_var - float(row @ row)
        self.x = np.vstack([self.x, x_new[None, :]])
        self.y = np.append(self.y, float(y_new))
        if fallback or pivot_sq <= -1e-6 * self_var:
            self.refactorize()
        else:
            n = self.y.size - 1
            chol = np.zeros((n + 1, n + 1))
            chol[:n, :n] = self.chol
            chol[n, :n] = row
            chol[n, n] = np.sqrt(max(pivot_sq, 1e-12))
            self.chol = chol
            self.alpha = cho_solve((chol, True), self.y - self.prior_mean)
        if self.max_observations is None \
                or self.y.size <= self.max_observations + self.block:
            return
        if self.policy is None:
            keep = self.y.size - self.block
            self.x, self.y = self.x[-keep:], self.y[-keep:]
        else:
            indices = np.unique(np.asarray(
                self.policy(self.x, self.y, self.max_observations), dtype=int
            ))
            self.x, self.y = self.x[indices], self.y[indices]
        self.refactorize()


def assert_bitwise_equal(gp, ref):
    for got, want in ((gp._x, ref.x), (gp._y, ref.y),
                      (gp._chol, ref.chol), (gp._alpha, ref.alpha)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class _ForcedRank1Failure:
    """Fault hook failing the rank-1 site while ``armed``."""

    def __init__(self):
        self.armed = False

    def __call__(self, site, attempt):
        if site == "rank1" and self.armed:
            raise np.linalg.LinAlgError("forced rank-1 failure")


class TestInPlaceBuffers:
    """The buffered rank-1 path equals the reference, bit for bit."""

    @pytest.mark.parametrize("policy", [None, make_eviction_policy()],
                             ids=["oldest-block", "inducing"])
    def test_lifecycle_matches_reference(self, policy):
        rng = np.random.default_rng(11)
        kernel = Matern(lengthscales=[0.6, 0.8, 1.0], output_scale=2.0)
        hook = _ForcedRank1Failure()
        gp = GaussianProcess(kernel, noise_variance=0.01,
                             max_observations=40, eviction_block=8,
                             fault_hook=hook, eviction_policy=policy)
        ref = ReferenceGP(kernel, 0.01, max_observations=40,
                          eviction_block=8, policy=policy)
        capacities = set()

        def add(fallback=False):
            x_new, y_new = rng.uniform(size=3), float(rng.normal())
            hook.armed = fallback
            gp.add(x_new, y_new)
            hook.armed = False
            ref.add(x_new, y_new, fallback=fallback)
            capacities.add(gp._cbuf.shape[0])
            assert_bitwise_equal(gp, ref)

        add()                                  # cold add
        for _ in range(45):                    # capacity 8 -> 16 -> 32 -> 64
            add()
        assert {8, 16, 32, 64} <= capacities
        add(fallback=True)                     # forced rank-1 fallback
        assert gp.rank1_fallbacks == 1
        for _ in range(10):                    # crosses the budget
            add()
        assert gp.evictions >= 1
        x_fit, y_fit = rng.uniform(size=(12, 3)), rng.normal(size=12)
        gp.fit(x_fit, y_fit)
        ref.fit(x_fit, y_fit)
        assert_bitwise_equal(gp, ref)
        for _ in range(5):
            add()
        gp.set_prior_mean(0.7)
        ref.set_prior_mean(0.7)
        assert_bitwise_equal(gp, ref)
        for _ in range(3):
            add()
        swapped = Matern(lengthscales=[0.4, 0.5, 0.6], output_scale=3.0)
        gp.kernel = swapped
        ref.kernel = swapped
        gp.fit(gp.inputs, gp.targets)
        ref.fit(ref.x, ref.y)
        assert_bitwise_equal(gp, ref)
        for _ in range(3):
            add()
        assert gp.last_jitter == 0.0

    def test_posterior_state_views_keep_their_values(self):
        rng = np.random.default_rng(12)
        hook = _ForcedRank1Failure()
        gp = GaussianProcess(Matern(lengthscales=[0.7, 0.9]),
                             noise_variance=0.01, max_observations=20,
                             eviction_block=4, fault_hook=hook)
        taken = []
        for i in range(40):  # growth at 8 and 16, a fallback, evictions
            hook.armed = i == 10
            gp.add(rng.uniform(size=2), float(rng.normal()))
            x, chol, alpha, _ = gp._posterior_state()
            taken.append([(a, a.copy()) for a in (x, chol, alpha)])
        assert gp.evictions >= 1 and gp.rank1_fallbacks == 1
        for arrays in taken:
            for view, copy in arrays:
                assert view.tobytes() == copy.tobytes()

    def test_inputs_and_targets_are_copies(self):
        gp = make_gp()
        for i in range(5):
            gp.add(np.array([0.3 * i]), float(i))
        inputs, targets = gp.inputs, gp.targets
        assert not np.shares_memory(inputs, gp._xbuf)
        assert not np.shares_memory(targets, gp._ybuf)
        inputs[:] = 9.0
        targets[:] = 9.0
        np.testing.assert_array_equal(gp.targets, np.arange(5.0))


class TestHyperparameterSwap:
    """A kernel or noise change drops the factor built for the old one."""

    @pytest.mark.parametrize("swap", ["kernel", "noise"])
    def test_swap_invalidates_then_add_rebuilds(self, swap):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(size=(5, 2)), rng.normal(size=5)
        gp = GaussianProcess(Matern(lengthscales=[1.0, 1.0]),
                             noise_variance=0.01)
        gp.fit(x, y)
        version = gp.factor_version
        kernel, noise = Matern(lengthscales=[0.4, 0.4], output_scale=3.0), 0.01
        if swap == "kernel":
            gp.kernel = kernel
        else:
            kernel, noise = gp.kernel, 0.2
            gp.noise_variance = noise
        assert not gp.factor_available
        assert gp.factor_version > version
        np.testing.assert_array_equal(gp.inputs, x)  # data kept
        with pytest.raises(NumericalInstabilityError):
            gp.predict(x[:2])

        x_new = rng.uniform(size=2)
        gp.add(x_new, 0.3)
        assert gp.factor_available
        fresh = GaussianProcess(kernel, noise_variance=noise)
        fresh.fit(np.vstack([x, x_new]), np.append(y, 0.3))
        query = rng.uniform(size=(4, 2))
        for got, want in zip(gp.predict(query), fresh.predict(query)):
            np.testing.assert_array_equal(got, want)
        gram = kernel(gp.inputs, gp.inputs) + noise * np.eye(6)
        np.testing.assert_allclose(gp._chol @ gp._chol.T, gram, atol=1e-12)

    def test_swap_then_fit_restores_the_posterior(self):
        rng = np.random.default_rng(6)
        x, y = rng.uniform(size=(5, 2)), rng.normal(size=5)
        kernel = Matern(lengthscales=[0.4, 0.4], output_scale=3.0)
        gp = GaussianProcess(Matern(lengthscales=[1.0, 1.0]),
                             noise_variance=0.01)
        gp.fit(x, y)
        gp.kernel = kernel
        gp.fit(gp.inputs, gp.targets)
        fresh = GaussianProcess(kernel, noise_variance=0.01)
        fresh.fit(x, y)
        query = rng.uniform(size=(4, 2))
        for got, want in zip(gp.predict(query), fresh.predict(query)):
            np.testing.assert_array_equal(got, want)

    def test_swap_on_empty_gp_keeps_the_prior(self):
        gp = make_gp()
        gp.kernel = Matern(lengthscales=[0.5], output_scale=2.0)
        assert gp.factor_available
        mean, var = gp.predict(np.array([[0.0]]))
        assert mean[0] == 0.0 and var[0] == 2.0
