"""Incremental multi-head posterior engine for the control-grid hot path.

EdgeBOL's per-period cost is dominated by evaluating three GP
posteriors (cost, delay, mAP — eqs. 3-4) over the joint grid built from
the observed context and the full control grid (11^4 = 14641 points in
the paper).  Evaluated naively through :meth:`GaussianProcess.predict`,
every period recomputes the ``N x M`` cross-kernel *and* the
``O(N^2 M)`` triangular solve ``V = L^-1 K(X, grid)`` from scratch.

:class:`SurrogateEngine` exploits two structural facts of Algorithm 1:

* the control grid is fixed, and contexts are CQI-quantised, so the
  same joint grid recurs period after period (always, in the static
  scenarios of Figs. 9-11; every sweep cycle in the dynamic Fig. 13);
* :meth:`GaussianProcess.add` extends the Cholesky factor by a rank-1
  block, so the factor of the first ``N`` observations is a leading
  principal block of the extended factor — cached solves against it
  stay valid and can be *extended* instead of recomputed.

Per (context, head) the engine caches the cross-kernel matrix ``K``,
the solved ``V = L^-1 K`` and the column sums ``sum(V**2, axis=0)``;
per (context, lengthscales) it caches the joint grid divided by the
lengthscales and its row sums of squares.  When ``k`` observations
arrived since the cache entry was built, only the new block is
computed::

    K = [K_old]          V = [V_old                          ]
        [K_new]              [L22^-1 (K_new - L21 @ V_old)   ]

which costs ``O(k N M)`` — ``O(N M)`` per period — instead of
``O(N^2 M)``, and the new rows' squares are added to the running sum,
so the variance ``prior - sum(V**2)`` costs ``O(M)`` more.  Heads whose
stock kernels share a family and lengthscales (EdgeBOL's cost and delay
heads) and whose new input rows are equal evaluate the correlation
block once per sweep and scale it by their own output scales.  Every
row stays bit-identical to evaluating each head alone.  The posterior
mean ``mu = m + K^T alpha`` is assembled from the *live* ``alpha``
every query, so :meth:`GaussianProcess.
set_prior_mean` (which only rewrites ``alpha``) needs no invalidation;
anything that rebuilds the factor — ``fit``, eviction, a kernel or
noise-variance change after a hyperparameter refit — bumps the GP's
``factor_version`` and triggers an exact rebuild of the affected cache
entries on their next use.

All heads are evaluated in one pass over one shared joint grid and
returned as a :class:`PosteriorBatch`, which
:meth:`repro.core.safeset.SafeSetEstimator.safe_mask` (eq. 8) and
:func:`repro.core.acquisition.safe_lcb_index_from_posterior` (eq. 9)
consume directly.  Results are numerically interchangeable with direct
``predict`` calls (same factor, same kernel rows, same matrix-vector
products).

In *batched* mode (``REPRO_BATCHED_HEADS=1`` or the ``batched``
constructor flag) heads needing the same kind of work — a rebuild at
the same ``n``, or an extension over the same ``(k0, n)`` row range —
with same-family kernels are grouped and served through one stacked
cross-kernel build (:func:`repro.core.kernels.stacked_cross`) plus one
batched triangular solve, instead of three-plus sequential per-head
sweeps.  Heads with custom kernels fall back to the per-head path, and
every :class:`EngineStats` counter is incremented per head exactly as
the per-head loop would, so run logs stay comparable across modes.

Timing and cache counters are kept in :class:`EngineStats` and surfaced
through :class:`repro.experiments.recorder.RunLog`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.backend import active_numerics
from repro.core.gp import GaussianProcess, grown_capacity
from repro.core.kernels import (
    batch_key,
    distance_from_scaled,
    scale_points,
    stacked_cross,
)
from repro.core.numerics import solve_lower
from repro.telemetry import runtime as telemetry


@dataclass
class EngineStats:
    """Counters for the posterior hot path (surfaced in run logs).

    All counters are dimensionless tallies except ``wall_time_s``
    (seconds, monotonic clock).  The same sweep is also visible as the
    ``engine.posterior`` telemetry span when telemetry is enabled.
    """

    #: Number of :meth:`SurrogateEngine.posterior` calls.
    queries: int = 0
    #: Per-head posterior evaluations (``queries`` times heads asked).
    head_queries: int = 0
    #: Cross-kernel entries computed (full rebuilds + extensions).
    kernel_evals: int = 0
    #: Head states served fully from cache (no kernel work at all).
    cache_hits: int = 0
    #: Head states extended by the rows added since the last query.
    extensions: int = 0
    #: Head states rebuilt from scratch (cold cache or invalidation).
    rebuilds: int = 0
    #: Context entries dropped by the LRU bound.
    lru_evictions: int = 0
    #: Wall-clock seconds spent inside the engine.
    wall_time_s: float = 0.0

    def snapshot(self) -> dict:
        """Plain-dict copy for logging/serialisation."""
        return {
            "queries": self.queries,
            "head_queries": self.head_queries,
            "kernel_evals": self.kernel_evals,
            "cache_hits": self.cache_hits,
            "extensions": self.extensions,
            "rebuilds": self.rebuilds,
            "lru_evictions": self.lru_evictions,
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class PosteriorBatch:
    """Per-head posterior moments over one shared joint grid.

    ``means``/``variances`` map head names to arrays of length
    ``joint_grid.shape[0]``.  Moments carry the unit of the head's
    training targets — weighted watts for ``"cost"`` (eq. 1), seconds
    for ``"delay"``, mAP in [0, 1] for ``"map"``; variances are the
    unit squared.  Standard deviations are derived lazily and cached
    (most consumers want either moments but not both copies).
    """

    joint_grid: np.ndarray
    means: dict[str, np.ndarray]
    variances: dict[str, np.ndarray]
    _stds: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def n_points(self) -> int:
        return int(self.joint_grid.shape[0])

    @property
    def heads(self) -> tuple[str, ...]:
        return tuple(self.means)

    def mean(self, head: str) -> np.ndarray:
        return self.means[head]

    def variance(self, head: str) -> np.ndarray:
        return self.variances[head]

    def std(self, head: str) -> np.ndarray:
        cached = self._stds.get(head)
        if cached is None:
            cached = np.sqrt(self.variances[head])
            self._stds[head] = cached
        return cached

    def moments(self, head: str) -> tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` — the :meth:`GaussianProcess.predict_std` pair."""
        return self.means[head], self.std(head)


def _solve_stacked(factors, rhs) -> np.ndarray:
    """Lower-triangular solves of a head group, stacked on axis 0.

    Each factor is solved as a slice of one C-ordered stack, so every
    head takes the same LAPACK call whatever its own factor's layout.
    """
    return np.stack([
        solve_lower(factor, b) for factor, b in zip(np.stack(factors), rhs)
    ])


class _HeadState:
    """Cached cross-kernel solves of one head against one joint grid.

    ``cross`` and ``v`` are capacity-doubled row buffers so per-period
    extensions append without reallocating the full ``N x M`` block.
    ``vsq`` is the running column sum ``sum(v[:n]**2, axis=0)`` that the
    posterior variance subtracts from ``prior_var``; it is kept by
    :meth:`write_rows`, the only writer of rows.
    """

    __slots__ = ("n", "factor_version", "cross", "v", "vsq", "prior_var")

    def __init__(self, n_points: int, prior_var: np.ndarray) -> None:
        self.n = 0
        self.factor_version = -1
        self.cross = np.empty((0, n_points))
        self.v = np.empty((0, n_points))
        self.vsq = np.zeros(n_points)
        self.prior_var = prior_var

    def write_rows(self, k0: int, cross: np.ndarray, v: np.ndarray) -> None:
        """Store rows ``k0..k0+k`` of ``cross`` and ``v``; keep ``vsq``.

        ``k0 == 0`` replaces the entry (a rebuild or a restore) and sets
        ``vsq`` from the whole of ``v``; otherwise the new rows' squares
        are added one row at a time, in row order.  numpy reduces axis 0
        of a C-contiguous array row by row in the same order, so either
        way ``vsq`` equals ``np.sum(self.v[:n]**2, axis=0)`` bit for bit.
        """
        n = k0 + v.shape[0]
        self._reserve(n)
        self.cross[k0:n] = cross
        self.v[k0:n] = v
        if k0 == 0:
            self.vsq = np.sum(self.v[:n] ** 2, axis=0)
        else:
            # Square the C-ordered copy: its rows are contiguous.
            for row in self.v[k0:n] ** 2:
                self.vsq += row
        self.n = n

    def clear(self) -> None:
        """Drop every row (the head went back to its prior)."""
        if self.n:
            self.n = 0
            self.vsq = np.zeros(self.vsq.shape[0])

    def _reserve(self, rows: int) -> None:
        capacity = self.cross.shape[0]
        if rows <= capacity:
            return
        new_capacity = grown_capacity(rows, capacity)
        for name in ("cross", "v"):
            buffer = getattr(self, name)
            grown = np.empty((new_capacity, buffer.shape[1]))
            grown[: self.n] = buffer[: self.n]
            setattr(self, name, grown)


class _ContextEntry:
    """One cached context: its joint grid, head states and scaled grids.

    ``scaled`` maps a lengthscale vector's bytes to the grid divided by
    those lengthscales and its row sums of squares — the grid half of
    :meth:`~repro.core.kernels.Kernel.scaled_distance`, shared by every
    head whose kernel has those lengthscales and evicted with the entry.
    """

    __slots__ = ("joint", "states", "scaled")

    def __init__(self, joint: np.ndarray) -> None:
        self.joint = joint
        self.states: dict[str, _HeadState] = {}
        self.scaled: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}


class SurrogateEngine:
    """Shared posterior evaluator for a family of GP heads on one grid.

    Parameters
    ----------
    heads:
        Mapping of head name (``"cost"``, ``"delay"``, ...) to the GP
        surrogate.  All heads must share the input dimension
        ``context_dim + control dims``.
    control_grid:
        ``(M, d_control)`` discretised control space; fixed for the
        engine's lifetime.
    context_dim:
        Length of the normalised context vector prefixed to each grid
        row.
    max_cached_contexts:
        LRU bound on distinct contexts whose joint grid and per-head
        solves are retained.  Each entry costs ``O(heads * N * M)``
        floats (plus one scaled grid per distinct lengthscale vector),
        so the bound caps memory on long runs with many distinct
        contexts.
    batched:
        Serve same-shaped head groups through stacked linear algebra
        (see the module docstring).  ``None`` (default) follows the
        active :class:`~repro.core.backend.NumericsConfig`
        (``REPRO_BATCHED_HEADS``); pass ``True``/``False`` to pin the
        mode regardless of the environment.
    """

    def __init__(
        self,
        heads: Mapping[str, GaussianProcess],
        control_grid: np.ndarray,
        context_dim: int,
        max_cached_contexts: int = 16,
        batched: bool | None = None,
    ) -> None:
        if not heads:
            raise ValueError("at least one GP head is required")
        grid = np.ascontiguousarray(control_grid, dtype=float)
        if grid.ndim != 2 or grid.shape[0] == 0:
            raise ValueError(
                f"control_grid must be a non-empty 2-D array, got shape {grid.shape}"
            )
        if context_dim < 0:
            raise ValueError(f"context_dim must be >= 0, got {context_dim}")
        if max_cached_contexts < 1:
            raise ValueError(
                f"max_cached_contexts must be >= 1, got {max_cached_contexts}"
            )
        self._heads = dict(heads)
        n_dims = context_dim + grid.shape[1]
        for name, gp in self._heads.items():
            if gp.kernel.n_dims != n_dims:
                raise ValueError(
                    f"head {name!r} expects {gp.kernel.n_dims}-dim inputs, "
                    f"but context_dim {context_dim} + control grid width "
                    f"{grid.shape[1]} = {n_dims}"
                )
        self.control_grid = grid
        self.context_dim = int(context_dim)
        self.max_cached_contexts = int(max_cached_contexts)
        self.batched = (
            active_numerics().batched_heads if batched is None else bool(batched)
        )
        # context key -> _ContextEntry, in LRU order.
        self._cache: OrderedDict[bytes, _ContextEntry] = OrderedDict()
        self.stats = EngineStats()

    # -- introspection --------------------------------------------------

    @property
    def heads(self) -> dict[str, GaussianProcess]:
        """Name-to-GP mapping (the dict is a copy; the GPs are live)."""
        return dict(self._heads)

    @property
    def n_cached_contexts(self) -> int:
        return len(self._cache)

    def reset_cache(self) -> None:
        """Drop every cached context (the GPs are untouched)."""
        self._cache.clear()

    # -- joint-grid assembly --------------------------------------------

    def _context_key(self, context: np.ndarray) -> tuple[np.ndarray, bytes]:
        arr = np.asarray(context, dtype=float).ravel()
        if arr.size != self.context_dim:
            raise ValueError(
                f"context must have {self.context_dim} entries, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("context must be finite")
        return arr, arr.tobytes()

    def _entry(self, context: np.ndarray) -> _ContextEntry:
        arr, key = self._context_key(context)
        entry = self._cache.get(key)
        if entry is None:
            m = self.control_grid.shape[0]
            joint = np.empty((m, self.context_dim + self.control_grid.shape[1]))
            joint[:, : self.context_dim] = arr
            joint[:, self.context_dim:] = self.control_grid
            entry = _ContextEntry(joint)
            self._cache[key] = entry
            while len(self._cache) > self.max_cached_contexts:
                self._cache.popitem(last=False)
                self.stats.lru_evictions += 1
        else:
            self._cache.move_to_end(key)
        return entry

    def joint_grid(self, context: np.ndarray) -> np.ndarray:
        """The cached ``(M, context_dim + d_control)`` joint grid.

        The returned array is shared with the cache — treat as
        read-only.
        """
        return self._entry(context).joint

    # -- posterior sweep -------------------------------------------------

    def _state_for(self, name: str, entry: _ContextEntry) -> _HeadState:
        """The head's cache entry for this context, created on miss."""
        state = entry.states.get(name)
        if state is None:
            joint = entry.joint
            state = _HeadState(
                joint.shape[0], self._heads[name].kernel.diag(joint)
            )
            entry.states[name] = state
        return state

    def _scaled_grid(self, entry: _ContextEntry, lengthscales: np.ndarray):
        """The context's joint grid scaled by ``lengthscales`` (cached)."""
        key = lengthscales.tobytes()
        scaled = entry.scaled.get(key)
        if scaled is None:
            # A refit swaps lengthscales: keep only the grids some head
            # still uses, so an entry holds at most one per kernel.
            live = {gp.kernel.lengthscales.tobytes()
                    for gp in self._heads.values()}
            for stale in [k for k in entry.scaled if k not in live]:
                del entry.scaled[stale]
            scaled = scale_points(entry.joint, lengthscales)
            entry.scaled[key] = scaled
        return scaled

    def _cross_rows(self, gp: GaussianProcess, x: np.ndarray, k0: int,
                    entry: _ContextEntry, shared: dict) -> np.ndarray:
        """``gp.kernel(x[k0:], joint)``, computed once per shared kernel.

        ``shared`` lives for one :meth:`posterior` call and maps (kernel
        family, lengthscales, row range) to the input rows and their
        correlation block.  A head whose stock kernel matches a key
        reuses the block only when its input rows are equal, and scales
        it by its own ``output_scale`` — what ``Kernel.__call__`` does.
        """
        kernel = gp.kernel
        rows = x[k0:]
        family = batch_key(kernel)
        if family is None:
            return kernel(rows, entry.joint)
        lengthscales = kernel.lengthscales
        key = (family, lengthscales.tobytes(), k0, x.shape[0])
        hit = shared.get(key)
        if hit is not None and np.array_equal(hit[0], rows):
            correlation = hit[1]
        else:
            ys, ys_sq = self._scaled_grid(entry, lengthscales)
            correlation = kernel._correlation(
                distance_from_scaled(rows / lengthscales, ys, ys_sq)
            )
            shared.setdefault(key, (rows, correlation))
        return kernel.output_scale * correlation

    @staticmethod
    def _raise_no_factor(name: str) -> None:
        from repro.core.numerics import NumericalInstabilityError

        raise NumericalInstabilityError(
            f"head '{name}' has no usable Cholesky factor (a "
            "refactorisation exhausted the jitter ladder, or its kernel or "
            "noise changed); refit the surrogate before sweeping the grid"
        )

    def _prior_moments(self, gp: GaussianProcess, state: _HeadState,
                       joint: np.ndarray, factor_version: int):
        """Empty-head moments: the prior, with the version kept current."""
        if state.factor_version != factor_version:
            # Covers a kernel/noise swap while the head is empty.
            state.prior_var = gp.kernel.diag(joint)
            state.factor_version = factor_version
        state.clear()
        mean = np.full(joint.shape[0], gp.prior_mean)
        return mean, state.prior_var.copy()

    def _rebuild_state(self, gp: GaussianProcess, state: _HeadState,
                       x: np.ndarray, chol: np.ndarray, factor_version: int,
                       entry: _ContextEntry, shared: dict) -> None:
        """Rebuild one head's cache entry exactly (cold or invalidated)."""
        joint = entry.joint
        state.prior_var = gp.kernel.diag(joint)
        cross = self._cross_rows(gp, x, 0, entry, shared)
        state.write_rows(0, cross, solve_lower(chol, cross))
        state.factor_version = factor_version
        self.stats.kernel_evals += x.shape[0] * joint.shape[0]
        self.stats.rebuilds += 1

    def _extend_state(self, gp: GaussianProcess, state: _HeadState,
                      x: np.ndarray, chol: np.ndarray,
                      entry: _ContextEntry, shared: dict) -> None:
        """Extend one head's solves by the rank-1 rows added since cached."""
        n = x.shape[0]
        k0 = state.n
        cross = self._cross_rows(gp, x, k0, entry, shared)
        block = cross - chol[k0:n, :k0] @ state.v[:k0]
        state.write_rows(k0, cross, solve_lower(chol[k0:n, k0:n], block))
        self.stats.kernel_evals += (n - k0) * entry.joint.shape[0]
        self.stats.extensions += 1

    @staticmethod
    def _assemble_moments(gp: GaussianProcess, state: _HeadState,
                          alpha: np.ndarray):
        """Posterior moments from a current cache entry and live alpha."""
        mean = gp.prior_mean + state.cross[: state.n].T @ alpha
        variance = np.maximum(state.prior_var - state.vsq, 0.0)
        return mean, variance

    def _head_moments(self, name: str, entry: _ContextEntry,
                      shared: dict) -> tuple[np.ndarray, np.ndarray]:
        gp = self._heads[name]
        state = self._state_for(name, entry)

        x, chol, alpha, factor_version = gp._posterior_state()
        if x is None:
            return self._prior_moments(gp, state, entry.joint, factor_version)
        if chol is None:
            self._raise_no_factor(name)

        if state.factor_version != factor_version:
            # Cold cache, or the factor lineage broke (fit / eviction /
            # hyperparameter change): rebuild this entry exactly.
            self._rebuild_state(
                gp, state, x, chol, factor_version, entry, shared
            )
        elif state.n < x.shape[0]:
            # Same factor lineage, k new rank-1 rows: extend the solves.
            self._extend_state(gp, state, x, chol, entry, shared)
        else:
            self.stats.cache_hits += 1

        return self._assemble_moments(gp, state, alpha)

    def _batched_moments(
        self,
        names: tuple[str, ...],
        entry: _ContextEntry,
        shared: dict,
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """All heads' moments via grouped stacked linear algebra.

        Heads are classified exactly as the per-head loop would classify
        them (prior / rebuild / extend / hit); rebuilds sharing ``n``
        and a kernel family, and extensions sharing ``(k0, n)`` and a
        family, are served by one stacked cross-kernel build and one
        batched triangular solve.  Unbatchable heads (custom kernels)
        take the per-head path.  Counters are bumped per head, matching
        the per-head loop tally for tally.
        """
        means: dict[str, np.ndarray] = {}
        variances: dict[str, np.ndarray] = {}
        rebuilds: dict[tuple, list] = {}
        extensions: dict[tuple, list] = {}
        live: list[tuple] = []
        joint = entry.joint
        for name in names:
            gp = self._heads[name]
            state = self._state_for(name, entry)
            x, chol, alpha, factor_version = gp._posterior_state()
            if x is None:
                means[name], variances[name] = self._prior_moments(
                    gp, state, joint, factor_version
                )
                continue
            if chol is None:
                self._raise_no_factor(name)
            live.append((name, gp, state, alpha))
            n = x.shape[0]
            if state.factor_version != factor_version:
                key = batch_key(gp.kernel)
                if key is None:
                    self._rebuild_state(
                        gp, state, x, chol, factor_version, entry, shared
                    )
                else:
                    rebuilds.setdefault((n, key), []).append(
                        (gp, state, x, chol, factor_version)
                    )
            elif state.n < n:
                key = batch_key(gp.kernel)
                if key is None:
                    self._extend_state(gp, state, x, chol, entry, shared)
                else:
                    extensions.setdefault((state.n, n, key), []).append(
                        (gp, state, x, chol)
                    )
            else:
                self.stats.cache_hits += 1

        m = joint.shape[0]
        for (n, _key), group in rebuilds.items():
            cross_stack = stacked_cross(
                [gp.kernel for gp, *_ in group],
                [x for _, _, x, _, _ in group],
                joint,
            )
            v_stack = _solve_stacked(
                [chol for *_, chol, _ in group], cross_stack
            )
            for i, (gp, state, x, chol, factor_version) in enumerate(group):
                state.prior_var = gp.kernel.diag(joint)
                state.write_rows(0, cross_stack[i], v_stack[i])
                state.factor_version = factor_version
                self.stats.kernel_evals += n * m
                self.stats.rebuilds += 1

        for (k0, n, _key), group in extensions.items():
            cross_stack = stacked_cross(
                [gp.kernel for gp, *_ in group],
                [x[k0:] for _, _, x, _ in group],
                joint,
            )
            # The correction against the already-solved rows is cheap and
            # head-local; only the (n-k0)-sized L22 solve is batched.
            blocks = [
                cross_stack[i] - chol[k0:n, :k0] @ state.v[:k0]
                for i, (_, state, _, chol) in enumerate(group)
            ]
            v_stack = _solve_stacked(
                [chol[k0:n, k0:n] for *_, chol in group], blocks
            )
            for i, (gp, state, x, chol) in enumerate(group):
                state.write_rows(k0, cross_stack[i], v_stack[i])
                self.stats.kernel_evals += (n - k0) * m
                self.stats.extensions += 1

        for name, gp, state, alpha in live:
            means[name], variances[name] = self._assemble_moments(
                gp, state, alpha
            )
        return means, variances

    def posterior(
        self,
        context: np.ndarray,
        heads: Iterable[str] | None = None,
    ) -> PosteriorBatch:
        """Evaluate the selected heads over the context's joint grid.

        Parameters
        ----------
        context:
            Normalised context vector of length ``context_dim``.
        heads:
            Head names to evaluate; defaults to every head.

        Returns
        -------
        PosteriorBatch
            Per-head mean/variance arrays over the shared joint grid,
            numerically matching ``gp.predict(joint_grid)`` per head.
        """
        with telemetry.span("engine.posterior") as sp:
            started = time.perf_counter()
            names = tuple(self._heads) if heads is None else tuple(heads)
            for name in names:
                if name not in self._heads:
                    raise KeyError(
                        f"unknown head {name!r}; engine heads are {tuple(self._heads)}"
                    )
            entry = self._entry(context)
            joint = entry.joint
            # Correlation blocks shared by same-kernel heads, this call only.
            shared: dict = {}
            if self.batched and len(names) > 1:
                means, variances = self._batched_moments(names, entry, shared)
                means = {name: means[name] for name in names}
                variances = {name: variances[name] for name in names}
            else:
                means = {}
                variances = {}
                for name in names:
                    means[name], variances[name] = self._head_moments(
                        name, entry, shared
                    )
            self.stats.queries += 1
            self.stats.head_queries += len(names)
            self.stats.wall_time_s += time.perf_counter() - started
            if sp:
                sp.set("heads", len(names))
                sp.set("points", int(joint.shape[0]))
            return PosteriorBatch(joint_grid=joint, means=means, variances=variances)
