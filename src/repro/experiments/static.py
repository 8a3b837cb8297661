"""Static scenarios (Figures 10-11).

For each constraint setting — lax (0.5 s, 0.4), medium (0.4 s, 0.5),
stringent (0.3 s, 0.6) — and each delta2 in {1, 2, ..., 64}, EdgeBOL
runs to convergence in a fixed context; we report the converged power
consumptions, the converged (normalised) cost against the offline
exhaustive-search oracle (Fig. 10), and the converged mean policies
(Fig. 11).

Normalisation: within each delta2 the cost is divided by the maximum
cost over the whole control grid at that delta2, making values
comparable across delta2 as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.bandit.oracle import ExhaustiveOracle
from repro.core import EdgeBOL, EdgeBOLConfig
from repro.experiments import spec as spec_registry
from repro.experiments.recorder import write_csv
from repro.experiments.runner import run_agent
from repro.experiments.spec import ExperimentSpec, ParamSpec
from repro.testbed.config import (
    CostWeights,
    ServiceConstraints,
    TestbedConfig,
)
from repro.testbed.scenarios import static_scenario
from repro.utils.ascii import render_table
from repro.utils.rng import seed_tree

#: The three constraint settings of Figs. 10-11.
CONSTRAINT_SETTINGS = (
    ServiceConstraints(d_max_s=0.5, rho_min=0.4),   # lax
    ServiceConstraints(d_max_s=0.4, rho_min=0.5),   # medium
    ServiceConstraints(d_max_s=0.3, rho_min=0.6),   # stringent
)

#: Names of the Figs. 10-11 constraint settings (sweep-axis labels).
CONSTRAINT_NAMES = ("lax", "medium", "stringent")

#: Setting-name to constraint mapping used by the spec's cells.
CONSTRAINTS_BY_NAME = dict(zip(CONSTRAINT_NAMES, CONSTRAINT_SETTINGS))

#: delta2 sweep of Figs. 10-11.
DELTA2_VALUES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class StaticResult:
    """Converged operating point for one (constraints, delta2) cell."""

    d_max_s: float
    rho_min: float
    delta2: float
    cost: float
    normalized_cost: float
    oracle_cost: float
    oracle_normalized_cost: float
    server_power_w: float
    bs_power_w: float
    resolution: float
    airtime: float
    gpu_speed: float
    mcs_fraction: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def run_static_cell(
    constraints: ServiceConstraints,
    delta2: float,
    n_periods: int = 150,
    tail_window: int = 30,
    mean_snr_db: float = 35.0,
    seed: int = 0,
    testbed: TestbedConfig | None = None,
    agent_config: EdgeBOLConfig | None = None,
) -> StaticResult:
    """One converged EdgeBOL run plus the oracle for the same cell.

    ``seed`` may be an int, a :class:`numpy.random.SeedSequence` node
    or a generator; the environment and oracle-environment generators
    are spawned from it as one seed tree.
    """
    testbed = testbed if testbed is not None else TestbedConfig()
    weights = CostWeights(1.0, delta2)
    grid = testbed.control_grid()
    env_rng, oracle_rng = seed_tree(seed, 2)

    env = static_scenario(mean_snr_db=mean_snr_db, rng=env_rng, config=testbed)
    agent = EdgeBOL(grid, constraints, weights, config=agent_config)
    log = run_agent(env, agent, n_periods)

    oracle_env = static_scenario(
        mean_snr_db=mean_snr_db, rng=oracle_rng, config=testbed
    )
    oracle = ExhaustiveOracle(oracle_env, weights, control_grid=grid)
    oracle_result = oracle.best(constraints, snrs_db=[mean_snr_db] * env.n_users)
    max_cost = float(oracle_env.evaluate_grid(grid).cost(weights).max())

    cost = log.tail_mean("cost", window=tail_window)
    return StaticResult(
        d_max_s=constraints.d_max_s,
        rho_min=constraints.rho_min,
        delta2=delta2,
        cost=cost,
        normalized_cost=cost / max_cost if max_cost else float("nan"),
        oracle_cost=oracle_result.cost,
        oracle_normalized_cost=(
            oracle_result.cost / max_cost if max_cost else float("nan")
        ),
        server_power_w=log.tail_mean("server_power_w", window=tail_window),
        bs_power_w=log.tail_mean("bs_power_w", window=tail_window),
        resolution=log.tail_mean("resolution", window=tail_window),
        airtime=log.tail_mean("airtime", window=tail_window),
        gpu_speed=log.tail_mean("gpu_speed", window=tail_window),
        mcs_fraction=log.tail_mean("mcs_fraction", window=tail_window),
    )


def run_static_sweep(
    constraint_settings: Sequence[ServiceConstraints] = CONSTRAINT_SETTINGS,
    delta2_values: Sequence[float] = DELTA2_VALUES,
    **kwargs,
) -> list[StaticResult]:
    """The full Figs. 10-11 sweep."""
    results = []
    for constraints in constraint_settings:
        for delta2 in delta2_values:
            results.append(run_static_cell(constraints, delta2, **kwargs))
    return results


# -- the ``static`` experiment spec -------------------------------------


def expand_static(params: Mapping) -> list[dict]:
    """Cross the three Figs. 10-11 constraint settings with delta2."""
    return [
        {"setting": name, "delta2": delta2}
        for name in CONSTRAINT_NAMES
        for delta2 in params["delta2"]
    ]


def run_static_spec_cell(params: Mapping, seed) -> list[dict]:
    """One (constraint setting, delta2) cell of the static sweep."""
    result = run_static_cell(
        CONSTRAINTS_BY_NAME[params["setting"]],
        float(params["delta2"]),
        n_periods=int(params["periods"]),
        seed=seed,
        testbed=TestbedConfig(n_levels=int(params["levels"])),
    )
    return [result.as_dict()]


def report_static(rows: list[dict], params: Mapping, out: Path) -> str:
    """Figs. 10-11 summary table plus ``static.csv``."""
    table = render_table(
        ["d_max", "rho_min", "delta2", "cost", "oracle", "server W",
         "BS W", "res", "airtime", "gpu", "mcs"],
        [
            [r["d_max_s"], r["rho_min"], r["delta2"], r["cost"],
             r["oracle_cost"], r["server_power_w"], r["bs_power_w"],
             r["resolution"], r["airtime"], r["gpu_speed"],
             r["mcs_fraction"]]
            for r in rows
        ],
    )
    path = write_csv(Path(out) / "static.csv", rows)
    return f"{table}\n\nwrote {path}"


SPEC = spec_registry.register(ExperimentSpec(
    name="static",
    help="Figs. 10-11 static sweep",
    params=(
        ParamSpec("delta2", type=float, default=(1.0, 4.0, 16.0, 64.0),
                  sweep=True, help="BS energy prices to sweep"),
        ParamSpec("periods", type=int, default=150, help="periods per cell"),
        ParamSpec("levels", type=int, default=9,
                  help="control-grid levels per dimension"),
    ),
    run_cell=run_static_spec_cell,
    report=report_static,
    expand=expand_static,
))
