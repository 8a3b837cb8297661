"""Numerics-mode configuration for the GP stack.

The GP stack calls numpy and scipy directly (kernel algebra in
:mod:`repro.core.kernels`, factorisation and the LAPACK solve helpers
in :mod:`repro.core.numerics`, the rank-1 updates in
:mod:`repro.core.gp`, the grid sweeps in :mod:`repro.core.posterior`);
there is one array backend, ``numpy``.

This module owns :class:`NumericsConfig` — the process-wide
description of the active numerics *mode* (stacked multi-head solves,
sparse observation budget) — resolved in priority order from an
explicitly installed config (:func:`install_numerics` /
:func:`use_numerics`), then from environment variables, then from the
dense defaults.  Environment-variable selection is what lets a CI leg
force the batched path on for the whole test suite, and what carries a
CLI ``--numerics`` choice into sweep worker processes (the environment
is inherited; an installed config is not).  Consumers resolve the
config once, when an agent or engine is built.

Environment variables
---------------------

``REPRO_NUMERICS_BACKEND``
    Array backend name; only ``numpy`` is accepted.  The field stays
    so store keys and checkpoints keep their layout.
``REPRO_BATCHED_HEADS``
    ``1``/``true`` enables stacked multi-head grid solves in
    :class:`~repro.core.posterior.SurrogateEngine`.
``REPRO_SPARSE_GP``
    ``1``/``true`` enables the inducing-subset sparse mode (observation
    budget per GP head, see :mod:`repro.core.sparse`).
``REPRO_GP_BUDGET``
    Sparse-mode observation budget (default 256).

See ``docs/NUMERICS.md`` for the full selection and trade-off guide.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

__all__ = [
    "NumericsConfig",
    "active_numerics",
    "install_numerics",
    "uninstall_numerics",
    "use_numerics",
    "numerics_env",
    "ENV_BACKEND",
    "ENV_BATCHED",
    "ENV_SPARSE",
    "ENV_BUDGET",
]

#: Environment variable naming the array backend (only ``numpy``).
ENV_BACKEND = "REPRO_NUMERICS_BACKEND"
#: Environment variable enabling stacked multi-head solves ("1"/"true").
ENV_BATCHED = "REPRO_BATCHED_HEADS"
#: Environment variable enabling the sparse observation-budget mode.
ENV_SPARSE = "REPRO_SPARSE_GP"
#: Environment variable overriding the sparse observation budget.
ENV_BUDGET = "REPRO_GP_BUDGET"

#: Values of a boolean environment variable that count as "on".
_TRUTHY = frozenset({"1", "true", "yes", "on"})


@dataclass(frozen=True)
class NumericsConfig:
    """Process-level description of the GP numerics mode.

    Attributes
    ----------
    backend:
        Array backend name.  ``"numpy"`` is the only backend; any other
        value is rejected.
    batched_heads:
        Evaluate multi-head grid sweeps through stacked linear-algebra
        calls (one grouped cross-kernel build + one batched triangular
        solve) instead of per-head loops.  Numerically equivalent to
        the per-head path; opt-in because the dense default is the
        bit-identity reference.
    sparse:
        Bound every GP head to ``sparse_budget`` retained observations,
        evicting via the inducing-subset policy of
        :mod:`repro.core.sparse` — per-period cost stays flat as the
        nominal history grows.
    sparse_budget:
        Observation budget per head in sparse mode.
    sparse_block:
        Eviction granularity (points dropped per eviction are
        amortised over this many periods).
    recent_fraction:
        Fraction of the budget reserved for the newest observations in
        sparse mode (stream continuity under drift).
    variance_inflation:
        Multiplier applied to posterior standard deviations in the
        safe-set test and the acquisition.  1.0 (default) is a no-op;
        subset-of-data posteriors are already conservative (their
        variances upper-bound the full-data ones), so this exists for
        future *parametric* sparse approximations whose variances can
        under-cover.
    """

    backend: str = "numpy"
    batched_heads: bool = False
    sparse: bool = False
    sparse_budget: int = 256
    sparse_block: int = 64
    recent_fraction: float = 0.25
    variance_inflation: float = 1.0

    def __post_init__(self) -> None:
        """Validate the backend, budgets, fractions and inflation factor."""
        if self.backend != "numpy":
            raise ValueError(
                f"array backend {self.backend!r} is not available: the GP "
                f"stack runs on numpy only; select the 'numpy' backend "
                f"(unset {ENV_BACKEND} or drop --backend)"
            )
        if self.sparse_budget < 1:
            raise ValueError(
                f"sparse_budget must be >= 1, got {self.sparse_budget}"
            )
        if self.sparse_block < 1:
            raise ValueError(
                f"sparse_block must be >= 1, got {self.sparse_block}"
            )
        if not 0.0 <= self.recent_fraction <= 1.0:
            raise ValueError(
                f"recent_fraction must be in [0, 1], got {self.recent_fraction}"
            )
        if not self.variance_inflation >= 1.0:
            raise ValueError(
                f"variance_inflation must be >= 1.0, got "
                f"{self.variance_inflation}"
            )

    @property
    def mode(self) -> str:
        """Canonical mode label: dense, batched, sparse or sparse+batched."""
        if self.sparse and self.batched_heads:
            return "sparse+batched"
        if self.sparse:
            return "sparse"
        if self.batched_heads:
            return "batched"
        return "dense"

    @classmethod
    def from_mode(cls, mode: str, *, backend: str | None = None,
                  sparse_budget: int | None = None) -> "NumericsConfig":
        """Config from a CLI-style mode label (``sparse-batched`` ok)."""
        normalised = str(mode).replace("-", "+")
        known = {
            "dense": (False, False),
            "batched": (True, False),
            "sparse": (False, True),
            "sparse+batched": (True, True),
            "batched+sparse": (True, True),
        }
        if normalised not in known:
            raise ValueError(
                f"unknown numerics mode '{mode}' (expected one of dense, "
                f"batched, sparse, sparse-batched)"
            )
        batched, sparse = known[normalised]
        kwargs = {"batched_heads": batched, "sparse": sparse}
        if backend is not None:
            kwargs["backend"] = backend
        if sparse_budget is not None:
            kwargs["sparse_budget"] = sparse_budget
        return cls(**kwargs)

    @classmethod
    def from_env(cls, environ=None) -> "NumericsConfig":
        """Config read from the selection environment variables."""
        environ = os.environ if environ is None else environ
        kwargs = {}
        backend = environ.get(ENV_BACKEND)
        if backend:
            kwargs["backend"] = backend
        batched = environ.get(ENV_BATCHED)
        if batched is not None:
            kwargs["batched_heads"] = batched.strip().lower() in _TRUTHY
        sparse = environ.get(ENV_SPARSE)
        if sparse is not None:
            kwargs["sparse"] = sparse.strip().lower() in _TRUTHY
        budget = environ.get(ENV_BUDGET)
        if budget:
            try:
                kwargs["sparse_budget"] = int(budget)
            except ValueError:
                raise ValueError(
                    f"{ENV_BUDGET} must be an integer, got {budget!r}"
                ) from None
        return cls(**kwargs)

    def env_vars(self) -> dict:
        """The environment variables that reproduce this config.

        Setting these in ``os.environ`` is how the CLI carries a
        ``--numerics`` selection into sweep worker processes.
        """
        return {
            ENV_BACKEND: self.backend,
            ENV_BATCHED: "1" if self.batched_heads else "0",
            ENV_SPARSE: "1" if self.sparse else "0",
            ENV_BUDGET: str(self.sparse_budget),
        }


#: Explicitly installed process-local config (overrides the environment).
_ACTIVE: NumericsConfig | None = None


def active_numerics() -> NumericsConfig:
    """The resolved numerics config: installed > environment > defaults."""
    if _ACTIVE is not None:
        return _ACTIVE
    return NumericsConfig.from_env()


def install_numerics(config: NumericsConfig) -> None:
    """Install ``config`` as the process-local numerics default.

    Note that an installed config does **not** propagate to sweep
    worker processes — use :func:`numerics_env` (or the CLI flags,
    which set the environment) for multi-process runs.
    """
    global _ACTIVE
    if not isinstance(config, NumericsConfig):
        raise TypeError(
            f"expected a NumericsConfig, got {type(config).__name__}"
        )
    _ACTIVE = config


def uninstall_numerics() -> None:
    """Remove an installed config (environment/defaults apply again)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def use_numerics(config: NumericsConfig):
    """Context manager: install ``config`` for the block, then restore."""
    global _ACTIVE
    previous = _ACTIVE
    install_numerics(config)
    try:
        yield config
    finally:
        _ACTIVE = previous


def numerics_env(mode: str | None = None, *, backend: str | None = None,
                 sparse_budget: int | None = None,
                 environ=None) -> NumericsConfig:
    """Resolve CLI-style numerics flags and export them to ``environ``.

    ``mode``/``backend``/``sparse_budget`` override the corresponding
    environment-derived values; unspecified fields keep their current
    environment (or default) settings.  The resolved config's
    :meth:`NumericsConfig.env_vars` are written back to ``environ``
    (default ``os.environ``) so worker processes inherit the selection,
    and the config is returned.
    """
    environ = os.environ if environ is None else environ
    config = NumericsConfig.from_env(environ)
    if mode is not None:
        config = NumericsConfig.from_mode(
            mode,
            backend=backend if backend is not None else config.backend,
            sparse_budget=(
                sparse_budget if sparse_budget is not None
                else config.sparse_budget
            ),
        )
    else:
        if backend is not None:
            config = replace(config, backend=backend)
        if sparse_budget is not None:
            config = replace(config, sparse_budget=sparse_budget)
    environ.update(config.env_vars())
    return config
