"""End-to-end service model: the closed-loop MVA pipeline.

Couples the virtualized BS (uplink), the edge server (GPU) and the
user-side think time into the closed queueing network described in
DESIGN.md, and produces every performance indicator of the paper for a
steady-state orchestration period:

* per-user service delay (PI 1) — full capture-to-response cycle,
* aggregate/frame rates, GPU residence times,
* server power (PI 3) and BS baseband power (PI 4).

mAP (PI 2) is independent of the queueing dynamics and handled by
:mod:`repro.service.detection` / :mod:`repro.service.profiles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.edge.queueing import (
    ClosedNetwork,
    DelayStation,
    QueueingStation,
    solve_exact_mva,
    solve_schweitzer,
)
from repro.edge.server import EdgeServer, ServerLoadReport
from repro.ran import phy
from repro.ran.mac import RadioPolicy
from repro.ran.vbs import VirtualizedBS
from repro.service.images import encoded_bits
from repro.utils.grids import map_distinct
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class UserEquipment:
    """User-side device model.

    Attributes
    ----------
    snr_db:
        Current uplink SNR of this user.
    preprocess_base_s:
        Fixed frame-capture/encode overhead on the device.
    preprocess_per_res_s:
        Additional encode time at full resolution (scales linearly with
        the pixel count, i.e. with the resolution policy).
    downlink_time_s:
        Time to return bounding boxes and labels (tiny payload, mostly
        RTT).
    """

    snr_db: float
    preprocess_base_s: float = 0.008
    preprocess_per_res_s: float = 0.018
    downlink_time_s: float = 0.006

    def think_time_s(self, resolution: float) -> float:
        """Per-cycle user-side time outside radio and GPU."""
        check_fraction(resolution, "resolution")
        return float(
            self.preprocess_base_s
            + self.preprocess_per_res_s * resolution
            + self.downlink_time_s
        )


@dataclass(frozen=True)
class ServiceSteadyState:
    """All steady-state KPIs for one orchestration period.

    Delays are ``inf`` and rates 0 when a user's allocation carries no
    goodput (dead link / zero airtime).
    """

    per_user_delay_s: np.ndarray
    per_user_rate_hz: np.ndarray
    per_user_tx_time_s: np.ndarray
    per_user_gpu_delay_s: np.ndarray
    max_delay_s: float
    total_rate_hz: float
    offered_load_bps: float
    mean_mcs: float
    server: ServerLoadReport
    bs_power_w: float


@dataclass(frozen=True)
class GridSteadyState:
    """Steady-state power and delay KPIs for M controls at once.

    Each field is an ``(M,)`` array whose entry ``i`` equals the
    matching field of :meth:`ServiceModel.steady_state` for row ``i``
    bit for bit (``max_delay_s``, ``server.server_power_w``,
    ``bs_power_w``).
    """

    max_delay_s: np.ndarray
    server_power_w: np.ndarray
    bs_power_w: np.ndarray


class ServiceModel:
    """The measurable system: (policies, channel states) -> KPIs.

    Parameters
    ----------
    vbs:
        Virtualized base station instance.
    server:
        Edge server instance.
    exact_mva_max_users:
        Population threshold above which the Bard-Schweitzer
        approximation replaces exact MVA.
    load_multiplier:
        Background-load emulation factor for the BS (Fig. 6 uses 10x).
    """

    def __init__(
        self,
        vbs: VirtualizedBS | None = None,
        server: EdgeServer | None = None,
        exact_mva_max_users: int = 8,
        load_multiplier: float = 1.0,
    ) -> None:
        self.vbs = vbs if vbs is not None else VirtualizedBS()
        self.server = server if server is not None else EdgeServer()
        if exact_mva_max_users < 1:
            raise ValueError("exact_mva_max_users must be >= 1")
        self.exact_mva_max_users = int(exact_mva_max_users)
        self.load_multiplier = check_positive(load_multiplier, "load_multiplier")

    @classmethod
    def from_config(cls, config) -> "ServiceModel":
        """Build the calibrated deployment described by a
        :class:`repro.testbed.config.TestbedConfig`."""
        from repro.edge.gpu import GpuModel
        from repro.ran.power import BSPowerModel

        vbs = VirtualizedBS(
            bandwidth_mhz=config.bandwidth_mhz,
            mac_efficiency=config.mac_efficiency,
            power_model=BSPowerModel(
                idle_power_w=config.bs_idle_power_w,
                base_busy_power_w=config.bs_base_busy_power_w,
                mcs_busy_power_w=config.bs_mcs_busy_power_w,
                grant_utilization=config.bs_grant_utilization,
            ),
        )
        server = EdgeServer(
            gpu=GpuModel(
                min_power_cap_w=config.gpu_min_power_cap_w,
                max_power_cap_w=config.gpu_max_power_cap_w,
                idle_power_w=config.gpu_idle_power_w,
                speed_exponent=config.gpu_speed_exponent,
                base_inference_time_s=config.gpu_base_inference_time_s,
                resolution_ease_s=config.gpu_resolution_ease_s,
                busy_draw_fraction=config.gpu_busy_draw_fraction,
            ),
            host_idle_power_w=config.host_idle_power_w,
            host_per_request_j=config.host_per_request_j,
        )
        return cls(vbs=vbs, server=server, load_multiplier=config.load_multiplier)

    def steady_state(
        self,
        resolution: float,
        radio_policy: RadioPolicy,
        gpu_speed: float,
        users: Sequence[UserEquipment],
    ) -> ServiceSteadyState:
        """Solve one orchestration period to steady state."""
        check_fraction(resolution, "resolution")
        check_fraction(gpu_speed, "gpu_speed")
        if not users:
            raise ValueError("at least one user is required")

        grant = self.vbs.grant(radio_policy, [u.snr_db for u in users])
        image_bits = encoded_bits(resolution)
        tx_times = np.array(
            [
                self.vbs.transmission_time_s(image_bits, alloc)
                for alloc in grant.allocations
            ]
        )
        n = len(users)

        if not np.all(np.isfinite(tx_times)):
            # At least one user cannot transmit at all: its delay is
            # unbounded and it contributes no load.
            rates = np.zeros(n)
            delays = np.full(n, np.inf)
            gpu_delays = np.full(n, np.inf)
            report = self.server.load_report(0.0, resolution, gpu_speed)
            bs_power = self.vbs.baseband_power_w(radio_policy, grant, 0.0)
            return ServiceSteadyState(
                per_user_delay_s=delays,
                per_user_rate_hz=rates,
                per_user_tx_time_s=tx_times,
                per_user_gpu_delay_s=gpu_delays,
                max_delay_s=float("inf"),
                total_rate_hz=0.0,
                offered_load_bps=0.0,
                mean_mcs=grant.mean_mcs,
                server=report,
                bs_power_w=bs_power,
            )

        gpu_service = self.server.inference_time_s(resolution, gpu_speed)
        network = ClosedNetwork(
            populations=tuple(1 for _ in range(n)),
            stations=(
                DelayStation(name="radio", demands_s=tuple(float(t) for t in tx_times)),
                QueueingStation(name="gpu", demands_s=tuple(gpu_service for _ in range(n))),
            ),
            think_times_s=tuple(u.think_time_s(resolution) for u in users),
        )
        if n <= self.exact_mva_max_users:
            solution = solve_exact_mva(network)
        else:
            solution = solve_schweitzer(network)

        rates = solution.throughputs
        delays = solution.cycle_times
        gpu_delays = solution.response_times[1, :]
        total_rate = float(rates.sum())
        offered_load = float(total_rate * image_bits * self.load_multiplier)

        report = self.server.load_report(total_rate, resolution, gpu_speed)
        bs_power = self.vbs.baseband_power_w(radio_policy, grant, offered_load)
        return ServiceSteadyState(
            per_user_delay_s=delays,
            per_user_rate_hz=rates,
            per_user_tx_time_s=tx_times,
            per_user_gpu_delay_s=gpu_delays,
            max_delay_s=float(delays.max()),
            total_rate_hz=total_rate,
            offered_load_bps=offered_load,
            mean_mcs=grant.mean_mcs,
            server=report,
            bs_power_w=bs_power,
        )

    def steady_state_grid(
        self,
        resolution: np.ndarray,
        airtime: np.ndarray,
        gpu_speed: np.ndarray,
        max_mcs: np.ndarray,
        users: Sequence[UserEquipment],
    ) -> GridSteadyState:
        """:meth:`steady_state` for M controls in one numpy pass.

        The four ``(M,)`` columns hold validated policy values
        (``max_mcs`` as integer MCS caps).  Row ``i`` of the result is
        bitwise equal to ``steady_state`` at row ``i``: nonlinear model
        terms go through the scalar functions once per distinct value
        (numpy's SIMD ``pow``/``exp`` need not match libm to the last
        bit), only ``+ - * /``, ``min``/``max`` and selections run
        vectorised, in the scalar code's operand order, and sums over
        users reduce a contiguous last axis as the scalar code's 1-D
        sums do.  Populations above ``exact_mva_max_users`` fall back
        to the scalar solver row by row.
        """
        if not users:
            raise ValueError("at least one user is required")
        n = len(users)
        if n > self.exact_mva_max_users:
            states = [
                self.steady_state(r, RadioPolicy(airtime=a, max_mcs=m), g, users)
                for r, a, g, m in zip(
                    resolution.tolist(), airtime.tolist(),
                    gpu_speed.tolist(), max_mcs.tolist(),
                )
            ]
            return GridSteadyState(
                max_delay_s=np.array([s.max_delay_s for s in states]),
                server_power_w=np.array([s.server.server_power_w for s in states]),
                bs_power_w=np.array([s.bs_power_w for s in states]),
            )

        # Uplink grant (RoundRobinScheduler.allocate): the policy cap
        # clipped by each user's channel, an equal airtime share.
        scheduler = self.vbs.scheduler
        full_rate = np.array([
            phy.uplink_capacity_bps(
                m, 1.0, bandwidth_mhz=scheduler.bandwidth_mhz, mac_efficiency=1.0
            )
            for m in range(phy.MAX_MCS + 1)
        ])
        channel_mcs = np.array(
            [phy.cqi_to_max_mcs(phy.snr_to_cqi(float(u.snr_db))) for u in users]
        )
        mcs = np.minimum(max_mcs[:, None], channel_mcs[None, :])
        share = airtime / n
        goodput = (
            full_rate[mcs] * share[:, None]
            * scheduler.effective_mac_efficiency(n)
        )
        image_bits = map_distinct(encoded_bits, resolution)
        live = goodput > 0
        tx = np.divide(
            image_bits[:, None], goodput,
            out=np.full(goodput.shape, np.inf), where=live,
        )
        dead = ~np.isfinite(tx).all(axis=1)
        # Dead rows (some user cannot transmit) keep delay inf and no
        # load; give them a placeholder so the recursion stays finite.
        tx[dead] = 0.0

        # Exact MVA, one customer per class: the GPU queue length at
        # every user subset (bitmask), smaller subsets first.
        gpu_time = map_distinct(self.server.inference_time_s, resolution, gpu_speed)
        think = [map_distinct(u.think_time_s, resolution) for u in users]
        tx_cols = list(np.ascontiguousarray(tx.T))
        full = (1 << n) - 1
        gpu_queues = np.zeros((full, gpu_time.size))

        def residence(subset: int, c: int) -> tuple[np.ndarray, np.ndarray]:
            """Class ``c``'s GPU response time and throughput in ``subset``."""
            response = gpu_time * (1.0 + gpu_queues[subset & ~(1 << c)])
            throughput = 1.0 / (think[c] + (tx_cols[c] + response))
            return response, throughput

        for subset in range(1, full):
            queue = gpu_queues[subset]
            for c in range(n):
                if subset >> c & 1:
                    response, throughput = residence(subset, c)
                    queue += throughput * response
        rates = np.empty((gpu_time.size, n))
        for c in range(n):
            rates[:, c] = residence(full, c)[1]
        max_delay = np.where(dead, np.inf, (1.0 / rates).max(axis=1))
        total_rate = np.where(dead, 0.0, rates.sum(axis=1))
        offered_load = total_rate * image_bits * self.load_multiplier

        # Server power (EdgeServer.load_report, GpuModel.mean_power_w).
        gpu = self.server.gpu
        utilization = total_rate * gpu_time
        utilization = np.where(1.0 < utilization, 1.0, utilization)
        busy_draw = map_distinct(gpu.busy_draw_w, gpu_speed)
        gpu_power = gpu.idle_power_w + utilization * (busy_draw - gpu.idle_power_w)
        host_power = (
            self.server.host_idle_power_w
            + self.server.host_per_request_j * total_rate
        )

        # Baseband power (VirtualizedBS.baseband_power_w) at the rounded
        # mean MCS actually used.
        power_model = self.vbs.power_model
        mean_mcs = mcs.sum(axis=1) / n
        rounded = map_distinct(lambda v: int(round(v)), mean_mcs)
        demanded = offered_load / (full_rate[rounded] * power_model.grant_utilization)
        busy = np.where(demanded < airtime, demanded, airtime)
        bs_power = power_model.idle_power_w + busy * map_distinct(
            power_model.busy_power_w, rounded
        )
        return GridSteadyState(
            max_delay_s=max_delay,
            server_power_w=gpu_power + host_power,
            bs_power_w=bs_power,
        )
