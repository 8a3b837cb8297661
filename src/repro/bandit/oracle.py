"""Offline exhaustive-search oracle.

The paper benchmarks EdgeBOL against an oracle that "finds the best
possible combination of policies offline after an exhaustive search
where all the system dynamics are known".  Here that means evaluating
the *noise-free* environment at every grid control for the given
channel state and returning the cheapest feasible one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.testbed.config import ControlPolicy, CostWeights, ServiceConstraints
from repro.testbed.env import EdgeAIEnvironment


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one exhaustive search.

    ``feasible`` is False when no grid control satisfies the
    constraints; in that case the returned policy minimises cost among
    all controls (matching EdgeBOL's S0 fallback semantics is up to the
    caller).
    """

    policy: ControlPolicy
    cost: float
    delay_s: float
    map_score: float
    feasible: bool


class ExhaustiveOracle:
    """Noise-free grid search over the control space.

    Parameters
    ----------
    env:
        Environment whose noise-free :meth:`evaluate_grid` defines the
        ground truth.
    cost_weights:
        The delta weights of eq. (1).
    control_grid:
        ``(n, 4)`` grid to search; defaults to the environment's
        configured grid.
    """

    def __init__(
        self,
        env: EdgeAIEnvironment,
        cost_weights: CostWeights,
        control_grid: np.ndarray | None = None,
    ) -> None:
        self.env = env
        self.cost_weights = cost_weights
        grid = (
            env.config.control_grid() if control_grid is None else
            np.asarray(control_grid, dtype=float)
        )
        if grid.ndim != 2 or grid.shape[1] != 4 or grid.shape[0] == 0:
            raise ValueError(
                f"control_grid must be (n, 4) with n >= 1, got {grid.shape}"
            )
        self.control_grid = grid
        self._cache: dict[tuple, OracleResult] = {}

    def best(
        self,
        constraints: ServiceConstraints,
        snrs_db=None,
    ) -> OracleResult:
        """Cheapest feasible control for the given channel state.

        One :meth:`EdgeAIEnvironment.evaluate_grid` pass scores every
        control; the result is the first grid row of minimum cost among
        the feasible rows (among all rows if none is feasible), exactly
        as a row-by-row scan keeping strictly cheaper rows picks it.
        Results are memoised on the exact constraints, cost weights and
        SNRs the search evaluates.
        """
        snrs = [float(s) for s in (
            self.env.current_snrs_db if snrs_db is None else snrs_db
        )]
        key = (
            constraints.d_max_s,
            constraints.rho_min,
            self.cost_weights.delta1,
            self.cost_weights.delta2,
            tuple(snrs),
        )
        if key in self._cache:
            return self._cache[key]

        kpis = self.env.evaluate_grid(self.control_grid, snrs_db=snrs)
        cost = kpis.cost(self.cost_weights)
        feasible = (kpis.delay_s <= constraints.d_max_s) & (
            kpis.map_score >= constraints.rho_min
        )
        candidates = np.flatnonzero(feasible)
        if candidates.size == 0:
            candidates = np.arange(cost.size)
        i = _first_minimum(cost, candidates)
        outcome = OracleResult(
            policy=ControlPolicy.from_array(self.control_grid[i]),
            cost=float(cost[i]),
            delay_s=float(kpis.delay_s[i]),
            map_score=float(kpis.map_score[i]),
            feasible=bool(feasible[i]),
        )
        self._cache[key] = outcome
        return outcome


def _first_minimum(cost: np.ndarray, candidates: np.ndarray) -> int:
    """Row a scan of ``candidates`` keeping strictly cheaper rows ends on.

    The first candidate is kept unless a later one is strictly cheaper,
    so a NaN cost never replaces a row and a NaN first candidate is
    never replaced.
    """
    scanned = cost[candidates]
    if np.isnan(scanned[0]):
        return int(candidates[0])
    return int(candidates[np.argmin(np.where(np.isnan(scanned), np.inf, scanned))])
